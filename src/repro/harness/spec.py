"""Declarative job model for the execution harness.

A :class:`RunSpec` names one experiment cell — one program on one
machine, everything :func:`repro.experiments.runner.run_cell` needs to
produce a :class:`~repro.experiments.runner.RunRecord` — as plain
data, so the scheduler can hash it, group it with cells that share
compilation work, ship it to a worker process, and cache its products.
Its ``sim`` is the complete machine the cell simulates, and the cell's
PU count and issue order are read from it.

Two hashes matter:

* the **compile signature** is
  :func:`~repro.experiments.runner.compile_cache_key`: the fields that
  determine the compilation products (benchmark, scale, selection
  config, input sets, generated source) — cells sharing it reuse one
  ``Compiled``;
* the **spec hash** additionally covers the machine configuration —
  it keys finished ``RunRecord``s in the artifact cache.

Both are content hashes over a canonical encoding of the value tree
(no ``hash()``, no ``pickle``), so they are stable across processes
and interpreter invocations.  A spec is frozen, so it encodes each
once and keeps the unsalted encoding: a later hash is one SHA-256.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

from repro.compiler import HeuristicLevel, SelectionConfig
from repro.experiments.runner import compile_cache_key
from repro.sim import SimConfig


def cell_label(benchmark: str, level, n_pus: int,
               out_of_order: bool) -> str:
    """The canonical short label for one experiment cell.

    ``repro report`` keys its comparison table on this string, so the
    harness (:meth:`RunSpec.describe`) and every loader that
    reconstructs labels from serialized records must agree on it.
    """
    level_name = getattr(level, "value", level)
    mode = "ooo" if out_of_order else "ino"
    return f"{benchmark}/{level_name}@{n_pus}pu-{mode}"


def canonical(value):
    """Deterministic, hash-stable encoding of a config value tree.

    Dataclasses become ``(classname, (field, value)...)`` tuples,
    enums ``(classname, value)``; floats go through ``repr`` so the
    encoding is exact.  Anything outside the closed set of config
    types is a hard error — silent fallbacks would alias cache keys.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            (f.name, canonical(getattr(value, f.name)))
            for f in dataclasses.fields(value)
        )
    if isinstance(value, enum.Enum):
        return (type(value).__name__, value.value)
    if isinstance(value, dict):
        return ("dict",) + tuple(
            sorted((canonical(k), canonical(v)) for k, v in value.items())
        )
    if isinstance(value, (list, tuple)):
        return ("seq",) + tuple(canonical(v) for v in value)
    if isinstance(value, float):
        return ("float", repr(value))
    if value is None or isinstance(value, (str, int, bool, bytes)):
        return value
    raise TypeError(f"cannot canonicalise {type(value).__name__!r} for hashing")


def digest(value, salt: str = "") -> str:
    """SHA-256 hex digest of ``canonical(value)`` plus a salt."""
    return _salted(repr(canonical(value)), salt)


def _salted(payload: str, salt: str) -> str:
    """SHA-256 hex digest of an encoded value plus a salt."""
    return hashlib.sha256(
        (payload + "\x00" + salt).encode("utf-8")
    ).hexdigest()


@dataclass(frozen=True)
class RunSpec:
    """One experiment cell, fully determined by its fields."""

    benchmark: str
    level: HeuristicLevel
    scale: float = 1.0
    selection: Optional[SelectionConfig] = None
    #: the machine the cell simulates, unchanged (the default is the
    #: paper's 4-PU out-of-order machine; builders of the paper family
    #: get theirs from :func:`~repro.experiments.runner.cell_config`)
    sim: SimConfig = SimConfig()
    input_set: str = "ref"
    profile_input: Optional[str] = None
    #: content hash of the workload's IR text, for benchmarks whose
    #: program is generated rather than registered (``synth:*``).  It
    #: salts the compile signature so generated programs can never
    #: alias cached artifacts of a same-named workload produced by a
    #: different generator version — and fuzz records (which embed
    #: oracle results) never alias plain run records.
    source_hash: Optional[str] = None

    @property
    def n_pus(self) -> int:
        return self.sim.n_pus

    @property
    def out_of_order(self) -> bool:
        return self.sim.out_of_order

    def compile_signature(self) -> Tuple:
        """Identity of the compilation products (the memo's key)."""
        return compile_cache_key(
            self.benchmark, self.level, self.scale, self.selection,
            self.input_set, self.profile_input, self.source_hash,
        )

    @cached_property
    def _compile_payload(self) -> str:
        return repr(canonical(self.compile_signature()))

    @cached_property
    def _spec_payload(self) -> str:
        return repr(canonical(("run", self.compile_signature(), self.sim)))

    def compile_hash(self, salt: str = "") -> str:
        """``digest(self.compile_signature(), salt)``."""
        return _salted(self._compile_payload, salt)

    def spec_hash(self, salt: str = "") -> str:
        """Content hash of the whole cell (compile + machine):
        ``digest(("run", self.compile_signature(), self.sim), salt)``."""
        return _salted(self._spec_payload, salt)

    def describe(self) -> str:
        """Short human label for progress lines and errors.

        Cells running a non-default selection strategy get a
        ``+strategy`` suffix so tuner/fuzz progress lines distinguish
        them from the paper reference cell of the same level; default
        cells keep the exact historical label.
        """
        label = cell_label(
            self.benchmark, self.level, self.n_pus, self.out_of_order
        )
        if self.selection is not None and self.selection.strategy:
            label = f"{label}+{self.selection.strategy}"
        return label
