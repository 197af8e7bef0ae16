"""Append-only run ledger plus a live progress line.

Every job the scheduler finishes — cache hit or fresh execution,
success or failure — appends one JSON object to a ``ledger.jsonl``
file::

    {"ts": 1699.2, "schema_version": 3, "seq": 17,
     "spec_hash": "ab12..",
     "job": "compress/...", "benchmark": "compress",
     "level": "control_flow", "n_pus": 4, "out_of_order": true,
     "cache": "hit"|"miss", "retries": 0,
     "outcome": "ok"|"error", "wall_seconds": 0.42,
     "error": null, "metrics": {"counters": ..., "histograms": ...}}

``retries`` is always 0, because the scheduler neither retries nor
times out a job; ``"timeout"`` outcomes and non-zero ``retries``
appear only in ledgers written by older versions, which still parse.

``seq`` (schema 3) is a monotonic per-file record number: it starts
one past the highest ``seq`` already in the file, so interleaved and
repeated runs stay totally ordered even when wall-clock timestamps
collide.  ``metrics`` (schema 3) carries the run's telemetry registry
summary (see :func:`repro.telemetry.metrics.run_metrics`); ``repro
report`` diffs ledgers through it.

Harness lifecycle *events* (e.g. a worker pool dying) are interleaved
as ``{"ts": ..., "schema_version": 3, "seq": ..., "event":
"pool_broken", ...}`` lines.  Readers are tolerant by contract:
unknown fields and unknown line shapes are preserved
(``read_ledger``) or ignored (``LedgerEntry.from_dict``), so
``repro report`` survives future ledger format growth in either
direction — and schema-2 ledgers (no ``seq``, no ``metrics``) still
parse.

Appends are **single-write**: each line is encoded once and written
with one ``os.write`` on an ``O_APPEND`` descriptor, so concurrent
writers (e.g. two grids run against one cache's ledger file) never
interleave partial JSON lines.  A reader racing a writer can still
observe a torn *tail* (the final line mid-write); ``read_ledger``
skips unparseable lines, so torn tails degrade to "not yet visible"
instead of crashing the reader.

The ledger is the audit trail for sweeps: it answers "what actually
ran, how long did it take, and what came from the cache" without
re-running anything; the tests use it to prove warm-cache runs never
re-enter the interpreter.  Skipping finished cells is the artifact
cache's job: a re-run grid takes every cached record as a ``hit``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import IO, List, Optional

from repro.harness.spec import RunSpec

#: current on-disk schema; bump when the entry shape changes
LEDGER_SCHEMA_VERSION = 3


def append_jsonl_line(path, payload: dict) -> None:
    """Append one JSON line to ``path`` with a single ``write``.

    ``O_APPEND`` + one ``os.write`` of the whole encoded line keeps
    concurrent appenders from interleaving partial lines: POSIX makes
    each append-mode write land at the (atomically advanced) end of
    file, so lines from different writers may be *reordered* but
    never spliced into each other.  Both the run ledger and the tune
    ledger append through here.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = (json.dumps(payload) + "\n").encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, data)
    finally:
        os.close(fd)


@dataclass
class LedgerEntry:
    """One finished job (see module docstring for the JSONL schema)."""

    spec_hash: str
    job: str
    benchmark: str
    level: str
    n_pus: int
    out_of_order: bool
    cache: str  # "hit" | "miss"
    retries: int
    outcome: str  # "ok" | "error" ("timeout" in older ledgers)
    wall_seconds: float
    error: Optional[str] = None
    metrics: Optional[dict] = None

    @classmethod
    def for_spec(cls, spec: RunSpec, spec_hash: str, *, cache: str,
                 outcome: str, wall_seconds: float, retries: int = 0,
                 error: Optional[str] = None,
                 metrics: Optional[dict] = None) -> "LedgerEntry":
        return cls(
            spec_hash=spec_hash,
            job=spec.describe(),
            benchmark=spec.benchmark,
            level=spec.level.value,
            n_pus=spec.n_pus,
            out_of_order=spec.out_of_order,
            cache=cache,
            retries=retries,
            outcome=outcome,
            wall_seconds=round(wall_seconds, 6),
            error=error,
            metrics=metrics,
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "LedgerEntry":
        """Rebuild an entry from a ledger line, tolerating format drift.

        Unknown fields (including future ``schema_version`` growth)
        are ignored; missing fields fall back to neutral defaults, so
        old readers keep working against newer ledgers and vice
        versa.
        """
        known = {f.name for f in fields(cls)}
        defaults = {
            "spec_hash": "", "job": "", "benchmark": "", "level": "",
            "n_pus": 0, "out_of_order": True, "cache": "miss",
            "retries": 0, "outcome": "ok", "wall_seconds": 0.0,
        }
        kwargs = {k: payload.get(k, defaults.get(k))
                  for k in known if k in payload or k in defaults}
        kwargs.setdefault("error", payload.get("error"))
        return cls(**kwargs)


class RunLedger:
    """Appends entries to a JSONL file and narrates progress.

    ``progress`` is any writable text stream (the CLI passes
    ``sys.stderr``); ``None`` keeps the ledger silent, which is what
    tests and library callers want.
    """

    def __init__(self, path, progress: Optional[IO[str]] = None) -> None:
        self.path = Path(path)
        self.progress = progress
        self._total = 0
        self._done = 0
        #: next record number; None until the first append scans the
        #: existing file so later runs continue the sequence
        self._next_seq: Optional[int] = None

    def open_run(self, total: int) -> None:
        """Reset the progress counter for a new submission of ``total`` jobs."""
        self._total = total
        self._done = 0

    def record(self, entry: LedgerEntry) -> None:
        """Append one entry (flushed immediately) and update progress."""
        payload = {
            "ts": round(time.time(), 3),
            "schema_version": LEDGER_SCHEMA_VERSION,
        }
        payload.update(asdict(entry))
        self._append(payload)
        self._done += 1
        self._narrate(entry)

    def event(self, kind: str, **detail) -> None:
        """Append a harness lifecycle event (not tied to one spec)."""
        payload = {
            "ts": round(time.time(), 3),
            "schema_version": LEDGER_SCHEMA_VERSION,
            "event": kind,
        }
        payload.update(detail)
        self._append(payload)

    def _take_seq(self) -> int:
        """Next monotonic record number (total order within the file)."""
        if self._next_seq is None:
            highest = -1
            for entry in read_ledger(self.path):
                seq = entry.get("seq")
                if isinstance(seq, int) and seq > highest:
                    highest = seq
            self._next_seq = highest + 1
        seq = self._next_seq
        self._next_seq = seq + 1
        return seq

    def _append(self, payload: dict) -> None:
        payload["seq"] = self._take_seq()
        append_jsonl_line(self.path, payload)

    def _narrate(self, entry: LedgerEntry) -> None:
        if self.progress is None:
            return
        line = (
            f"\r[{self._done}/{self._total}] {entry.job} "
            f"{entry.cache} {entry.outcome} {entry.wall_seconds:.2f}s"
        )
        end = "\n" if self._done >= self._total else ""
        try:
            self.progress.write(line.ljust(72) + end)
            self.progress.flush()
        except (OSError, ValueError):  # closed stream: progress is best-effort
            self.progress = None


def read_ledger(path) -> List[dict]:
    """Parse a ledger file back into dicts (skipping torn lines)."""
    entries: List[dict] = []
    path = Path(path)
    if not path.exists():
        return entries
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return entries


def default_progress() -> Optional[IO[str]]:
    """stderr when it is a live console, else silent."""
    stream = sys.stderr
    try:
        if stream.isatty():
            return stream
    except (AttributeError, ValueError):
        pass
    return None
