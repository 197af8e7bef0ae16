"""Per-run state shared by the PUs and the sequencer.

The static per-instruction arrays (operand producers, memory
producers, latencies, release points, gshare outcomes) live in the
stream's shared :class:`~repro.sim.packed.PackedTrace` and the
trace's :class:`~repro.sim.packed.TraceArrays` under it — built once
per ``(trace, partition)`` and once per trace — and are aliased here,
so constructing a machine costs O(tasks), not O(trace).  Only the mutable completion /
forward-time arrays the cycle loop updates are allocated per run.
Squashes reset the mutable slices of the affected dynamic task spans.
"""

from __future__ import annotations

from typing import List, Optional

from repro.compiler.regcomm import ReleaseAnalysis
from repro.sim.config import ForwardPolicy, SimConfig
from repro.sim.packed import (
    OPCLASS_BRANCH,
    OPCLASS_FP,
    OPCLASS_INT,
    OPCLASS_MEM,
)
from repro.sim.taskstream import TaskStream

__all__ = [
    "OPCLASS_BRANCH",
    "OPCLASS_FP",
    "OPCLASS_INT",
    "OPCLASS_MEM",
    "RunState",
]


class RunState:
    """All per-run arrays, indexed by trace position."""

    def __init__(
        self,
        stream: TaskStream,
        config: SimConfig,
        release: Optional[ReleaseAnalysis] = None,
    ) -> None:
        self.stream = stream
        self.config = config

        if config.forward_policy is ForwardPolicy.SCHEDULE and release is None:
            release = ReleaseAnalysis(stream.partition)
        self.release_analysis = release

        packed = stream.packed
        self.packed = packed
        arrays = packed.arrays
        n = packed.n

        # ---- static arrays: aliases into the shared packed trace ----------
        self.opcls = arrays.opcls
        self.latency = arrays.latency
        self.is_load = arrays.is_load
        self.is_store = arrays.is_store
        self.is_mem = arrays.is_mem
        self.is_cond_branch = arrays.is_cond_branch
        self.pc = arrays.pc
        self.addr = arrays.addr
        self.block_start = arrays.block_start
        self.producers = arrays.producers
        self.issue_simple = arrays.issue_simple
        self.mem_producer = arrays.mem_producer
        self.task_seq = packed.task_seq
        self.gshare_mispred = arrays.gshare_mispred
        self.has_write = arrays.has_write
        self.has_remote_consumer = packed.has_remote_consumer
        self.cross_consumer = packed.cross_consumer
        self.consumer_seqs = packed.consumer_seqs
        self.release_now = packed.release_now(config.forward_policy, release)

        # ---- mutable arrays ------------------------------------------------
        #: completion cycle per executed instruction (-1 = not executed)
        self.complete: List[int] = [-1] * n
        #: cycle the produced register value is available on the ring
        self.forward: List[int] = [-1] * n
        #: squash incarnation per dynamic task
        self.generation: List[int] = [0] * len(stream.tasks)
        #: PU that last executed each dynamic task
        self.pu_of_seq: List[int] = [-1] * len(stream.tasks)

    def clear_span(self, seq: int) -> None:
        """Reset execution state of dynamic task ``seq`` after a squash."""
        dyn_task = self.stream.tasks[seq]
        start, end = dyn_task.start, dyn_task.end
        self.complete[start:end] = [-1] * (end - start)
        self.forward[start:end] = [-1] * (end - start)
        self.generation[seq] += 1

    @property
    def gshare_accuracy(self) -> float:
        """Program-order intra-task branch prediction accuracy."""
        return self.packed.arrays.gshare_accuracy

    @property
    def branch_count(self) -> int:
        """Dynamic conditional branches in the trace."""
        return self.packed.arrays.gshare_predictions
