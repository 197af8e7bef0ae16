"""Machine configuration (defaults mirror Section 4.2 of the paper).

The paper's per-PU pipeline: 2-way issue, 16-entry reorder buffer,
8-entry issue list, two integer / one floating point / one branch /
one memory functional unit.  The register communication ring carries
2 values per cycle per PU and bypasses adjacent PUs in the same cycle.
The memory system: per-PU-banked L1 I/D caches (64 KB for 4 PUs,
128 KB for 8), a 32-entry-per-PU ARB with a 256-entry synchronisation
table, a 4 MB L2 with 12-cycle hits, and 58-cycle main memory.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

#: the cycle-loop implementations :attr:`SimConfig.engine` accepts
ENGINES = ("fast", "reference")


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
    #: (event-driven, skips quiescent spans) or "reference" (uniform
    #: per-cycle tick).  Results are bit-identical; the reference
    #: engine is the oracle the fast engine is validated against.
    engine: str = "fast"

    #: optional machine description: a preset name (resolved through
    #: :mod:`repro.machines.registry` at construction) or a
    #: :class:`~repro.machines.MachineSpec`.  When set, the spec is
    #: authoritative: ``n_pus`` becomes the spec's PU count, the L1s
    #: scale with it, the spec's topology overrides (ring hop
    #: latency/bandwidth, ARB shape) replace the global fields, and
    #: per-PU profiles override the global widths/unit counts inside
    #: the engines.  A spec whose profiles inherit everything is
    #: bit-identical to this config with ``machine=None``.
    machine: object = None

    def __post_init__(self) -> None:
        if self.machine is not None:
            from repro.machines import resolve_machine

            spec = resolve_machine(self.machine)
            object.__setattr__(self, "machine", spec)
            object.__setattr__(self, "n_pus", spec.n_pus)
            l1_bytes = 16 * 1024 * spec.n_pus
            object.__setattr__(
                self, "l1d", replace(self.l1d, size_bytes=l1_bytes)
            )
            object.__setattr__(
                self, "l1i", replace(self.l1i, size_bytes=l1_bytes)
            )
            for attr in ("ring_bandwidth", "ring_hop_latency",
                         "arb_entries_per_pu", "arb_latency"):
                value = getattr(spec, attr)
                if value is not None:
                    object.__setattr__(self, attr, value)
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {', '.join(ENGINES)}, "
                f"got {self.engine!r}"
            )
        if self.n_pus < 1:
            raise ValueError("n_pus must be >= 1")
        if self.issue_width < 1 or self.fetch_width < 1:
            raise ValueError("issue/fetch width must be >= 1")
        if self.rob_size < 1 or self.issue_list_size < 1:
            raise ValueError("window sizes must be >= 1")

    def scaled_for_pus(self, n_pus: int) -> "SimConfig":
        """This configuration with ``n_pus`` PUs and paper-scaled L1s.

        The paper doubles L1 capacity from 64 KB (4 PUs) to 128 KB
        (8 PUs); capacities scale linearly with PU count here.
        """
        l1_bytes = 16 * 1024 * n_pus
        return replace(
            self,
            n_pus=n_pus,
            l1d=replace(self.l1d, size_bytes=l1_bytes),
            l1i=replace(self.l1i, size_bytes=l1_bytes),
        )
