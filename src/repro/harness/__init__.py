"""Parallel experiment execution engine (the paper-artefact harness).

The experiment layer describes *what* to measure (grids of
benchmark × heuristic × machine cells); this package decides *how*:

* :mod:`~repro.harness.spec` — :class:`RunSpec`, the declarative job
  model with deterministic content hashes;
* :mod:`~repro.harness.scheduler` — :func:`run_specs`, grouping specs
  by compile key and fanning them out over a process pool (serial at
  ``jobs=1``, and serial again if the pool breaks), and
  :func:`run_keyed`, which keys a grid's records;
* :mod:`~repro.harness.cache` — :class:`ArtifactCache`, the
  persistent content-addressed store for compilation products and
  finished records, salted by a digest of the package sources;
* :mod:`~repro.harness.ledger` — :class:`RunLedger`, the append-only
  JSONL audit trail plus live progress;
* :mod:`~repro.harness.serialize` — JSON views for ``--json``.
"""

from repro.harness.cache import ArtifactCache, code_version, default_cache_root
from repro.harness.ledger import (
    LEDGER_SCHEMA_VERSION,
    LedgerEntry,
    RunLedger,
    append_jsonl_line,
    read_ledger,
)
from repro.harness.scheduler import (
    HarnessError,
    execute_spec,
    run_keyed,
    run_specs,
)
from repro.harness.serialize import (
    grid_records,
    record_to_dict,
    records_to_json,
    write_records_json,
)
from repro.harness.spec import RunSpec, canonical, digest

__all__ = [
    "ArtifactCache",
    "HarnessError",
    "LEDGER_SCHEMA_VERSION",
    "LedgerEntry",
    "RunLedger",
    "RunSpec",
    "append_jsonl_line",
    "canonical",
    "code_version",
    "default_cache_root",
    "digest",
    "execute_spec",
    "grid_records",
    "read_ledger",
    "record_to_dict",
    "records_to_json",
    "run_keyed",
    "run_specs",
    "write_records_json",
]
