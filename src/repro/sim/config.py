"""Machine configuration (defaults mirror Section 4.2 of the paper).

The paper's per-PU pipeline: 2-way issue, 16-entry reorder buffer,
8-entry issue list, two integer / one floating point / one branch /
one memory functional unit.  The register communication ring carries
2 values per cycle per PU and bypasses adjacent PUs in the same cycle.
The memory system: per-PU-banked L1 I/D caches (64 KB for 4 PUs,
128 KB for 8), a 32-entry-per-PU ARB with a 256-entry synchronisation
table, a 4 MB L2 with 12-cycle hits, and 58-cycle main memory.

A :class:`SimConfig` is the one description of a machine.  Beyond the
paper's knobs it holds optional per-PU :class:`PUProfile` overrides
(heterogeneous rings) and the inter-task predictor kind; the named
presets in :mod:`repro.machines` are values of it.  Construction runs
the machine lint, so a config no simulation can run (or no machine
may have) fails there, naming the rule it breaks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.predict.taskpred import TASK_PREDICTOR_KINDS

#: the cycle-loop implementations :attr:`SimConfig.engine` accepts
ENGINES = ("fast", "reference")

#: opclass order of ``PUProfile.lat_extra`` (matches OPCLASS_* indices)
LAT_EXTRA_CLASSES: Tuple[str, ...] = ("int", "fp", "mem", "branch")

#: the per-PU widths and unit counts a :class:`PUProfile` may override
_PU_FIELDS: Tuple[str, ...] = (
    "issue_width", "fetch_width",
    "int_units", "fp_units", "branch_units", "mem_units",
)


def check_pu_count(n_pus: int) -> None:
    """Raise ValueError unless ``n_pus`` can be a machine's PU count:
    at least one, and a power of two (the ring hop arithmetic and the
    L1 bank scaling assume one)."""
    if n_pus < 1:
        raise ValueError(f"a machine needs at least one PU, got {n_pus}")
    if n_pus & (n_pus - 1):
        raise ValueError(
            f"PU count {n_pus} is not a power of two (the ring hop "
            "arithmetic and the L1 bank scaling assume one)"
        )


def _check_widths(owner, where: str) -> None:
    """Every set width and unit count of ``owner`` (a config or a PU
    profile, where None inherits) is at least one."""
    for name in _PU_FIELDS:
        value = getattr(owner, name)
        if value is not None and value < 1:
            rule = ("" if name.endswith("width") else
                    " (every PU needs at least one unit of each class)")
            raise ValueError(f"{where}{name} must be >= 1{rule}, got {value}")


class ForwardPolicy(enum.Enum):
    """When a task forwards an inter-task register value.

    * ``SCHEDULE`` — at the producing instruction when it is a static
      release point (the compiler's dead register analysis), else at
      task completion.  The paper's compiled behaviour.
    * ``EAGER`` — always at the producing instruction (oracle last-def
      knowledge; an upper bound used in ablations).
    * ``LAZY`` — always at task completion (no communication
      scheduling; a lower bound used in ablations).
    """

    SCHEDULE = "schedule"
    EAGER = "eager"
    LAZY = "lazy"


@dataclass(frozen=True)
class CacheConfig:
    """One cache level: capacity in bytes, associativity, line size."""

    size_bytes: int
    assoc: int
    line_bytes: int
    hit_latency: int

    @property
    def sets(self) -> int:
        """Number of sets."""
        return max(1, self.size_bytes // (self.assoc * self.line_bytes))


@dataclass(frozen=True)
class PUProfile:
    """One processing unit's overrides (``None`` = the config's value)."""

    name: str = "pu"
    issue_width: Optional[int] = None
    fetch_width: Optional[int] = None
    int_units: Optional[int] = None
    fp_units: Optional[int] = None
    branch_units: Optional[int] = None
    mem_units: Optional[int] = None
    #: extra execution cycles per opclass (:data:`LAT_EXTRA_CLASSES`
    #: order) added to every instruction this PU issues; zeros = paper
    #: timing
    lat_extra: Tuple[int, ...] = (0, 0, 0, 0)

    def __post_init__(self) -> None:
        if not isinstance(self.lat_extra, tuple):
            object.__setattr__(self, "lat_extra", tuple(self.lat_extra))


@dataclass(frozen=True)
class SimConfig:
    """Full Multiscalar machine configuration."""

    n_pus: int = 4
    out_of_order: bool = True
    issue_width: int = 2
    fetch_width: int = 2
    rob_size: int = 16
    issue_list_size: int = 8
    int_units: int = 2
    fp_units: int = 1
    branch_units: int = 1
    mem_units: int = 1

    #: pipeline-fill cycles charged at every task start (Section 3.2
    #: assumes a total task overhead of ~2 cycles)
    task_start_overhead: int = 1
    #: commit cycles charged at every task retire
    task_end_overhead: int = 1
    #: extra fetch bubble after a mispredicted intra-task branch
    branch_mispredict_penalty: int = 4
    #: cycles between a task resolving its successor and the sequencer
    #: redirecting after an inter-task misprediction
    task_mispredict_redirect: int = 1

    #: register ring: values per cycle per PU of egress bandwidth
    ring_bandwidth: int = 2
    #: extra cycles per ring hop beyond the first (adjacent PUs bypass
    #: in the same cycle)
    ring_hop_latency: int = 1
    forward_policy: ForwardPolicy = ForwardPolicy.SCHEDULE
    #: extra cycles modelling a path-dependent release instruction
    release_lag: int = 2

    #: ARB lookup latency (cross-task store-to-load forwarding)
    arb_latency: int = 2
    #: ARB entries per PU; speculative memory operations beyond this
    #: stall until the task becomes non-speculative (Section 2.4.1:
    #: "large tasks may cause the ARB to overflow"). 0 disables.
    arb_entries_per_pu: int = 32
    #: same-task store-to-load forwarding latency
    stlf_latency: int = 1
    #: memory synchronisation table entries (0 disables syncing)
    sync_table_size: int = 256

    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 2, 32, 1)
    )
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 2, 32, 1)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(4 * 1024 * 1024, 2, 32, 12)
    )
    memory_latency: int = 58

    #: word size in bytes used to map word addresses to cache lines
    word_bytes: int = 4

    #: safety valve: abort runs exceeding this many cycles
    max_cycles: int = 50_000_000

    #: cycle-loop implementation (one of :data:`ENGINES`): "fast"
    #: (the native C port of the per-cycle tick, see
    #: :mod:`repro.sim.native`) or "reference" (the Python tick).
    #: Results are bit-identical; the reference engine is the oracle
    #: the fast engine is validated against.
    engine: str = "fast"

    #: per-PU overrides, one :class:`PUProfile` per PU around the ring;
    #: empty when every PU takes this config's own widths and units
    pus: Tuple[PUProfile, ...] = ()
    #: inter-task predictor kind (one of
    #: :data:`~repro.predict.taskpred.TASK_PREDICTOR_KINDS`); "path"
    #: is the paper's
    predictor: str = "path"

    def __post_init__(self) -> None:
        """The machine lint: a config the simulator cannot run, or one
        no machine may have, fails here with the rule it breaks."""
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {', '.join(ENGINES)}, "
                f"got {self.engine!r}"
            )
        check_pu_count(self.n_pus)
        if self.pus and len(self.pus) != self.n_pus:
            raise ValueError(
                f"pus holds {len(self.pus)} PU profiles for "
                f"n_pus={self.n_pus}"
            )
        if self.rob_size < 1 or self.issue_list_size < 1:
            raise ValueError("window sizes must be >= 1")
        for name, low in (("ring_bandwidth", 1), ("ring_hop_latency", 0),
                          ("arb_entries_per_pu", 0), ("arb_latency", 1)):
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if self.predictor not in TASK_PREDICTOR_KINDS:
            raise ValueError(
                f"unknown predictor {self.predictor!r}; known: "
                f"{', '.join(TASK_PREDICTOR_KINDS)}"
            )
        _check_widths(self, "")
        for i, pu in enumerate(self.pus):
            _check_widths(pu, f"PU {i} ({pu.name!r}): ")
            if len(pu.lat_extra) != len(LAT_EXTRA_CLASSES):
                raise ValueError(
                    f"PU {i} ({pu.name!r}): lat_extra needs "
                    f"{len(LAT_EXTRA_CLASSES)} entries "
                    f"({'/'.join(LAT_EXTRA_CLASSES)}), "
                    f"got {len(pu.lat_extra)}"
                )
            for cls_name, extra in zip(LAT_EXTRA_CLASSES, pu.lat_extra):
                if not isinstance(extra, int) or extra < 0:
                    raise ValueError(
                        f"PU {i} ({pu.name!r}): lat_extra[{cls_name}] "
                        f"must be a non-negative int, got {extra!r}"
                    )

    def pu_field(self, index: int, name: str) -> int:
        """PU ``index``'s ``name`` (a width or unit count): its
        profile's override, else this config's own value."""
        if self.pus:
            value = getattr(self.pus[index], name)
            if value is not None:
                return value
        return getattr(self, name)

    def scaled_for_pus(self, n_pus: int) -> "SimConfig":
        """This configuration with ``n_pus`` PUs and paper-scaled L1s.

        The paper doubles L1 capacity from 64 KB (4 PUs) to 128 KB
        (8 PUs); capacities scale linearly with PU count here.  A
        machine with per-PU profiles has one profile per PU, so it
        cannot be sized to another count.
        """
        if self.pus and n_pus != len(self.pus):
            raise ValueError(
                f"a machine with {len(self.pus)} per-PU profiles cannot "
                f"be sized to {n_pus} PUs"
            )
        l1_bytes = 16 * 1024 * n_pus
        return replace(
            self,
            n_pus=n_pus,
            l1d=replace(self.l1d, size_bytes=l1_bytes),
            l1i=replace(self.l1i, size_bytes=l1_bytes),
        )
