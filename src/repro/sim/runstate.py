"""Per-run state shared by the PUs and the sequencer.

Only the mutable completion / forward-time arrays the cycle loop
updates are allocated per run, so constructing a machine costs
O(tasks), not O(trace).  Squashes reset the mutable slices of the
affected dynamic task spans.

The static per-instruction arrays (operand producers, memory
producers, latencies, release points, gshare outcomes) are aliases
into the stream's shared :class:`~repro.sim.packed.PackedTrace` and
the trace's :class:`~repro.sim.packed.TraceArrays` under it.  They are
bound on first access, which only the reference loop (and monitors,
which force it) makes: a native run reads the kernel's own lowering
of the trace, so it never builds the Python packing.  After a native
run, ``complete`` and ``forward`` are the kernel's ``array('q')``
buffers rather than lists, and ``has_remote_consumer`` and
``gshare_accuracy`` hold the kernel's values.
"""

from __future__ import annotations

from typing import List, Optional

from repro.compiler.regcomm import ReleaseAnalysis
from repro.sim.config import ForwardPolicy, SimConfig
from repro.sim.taskstream import TaskStream

#: static aliases into the trace's TraceArrays
_TRACE_FIELDS = (
    "opcls", "latency", "is_load", "is_store", "is_mem", "is_cond_branch",
    "pc", "addr", "block_start", "producers", "mem_producer",
    "gshare_mispred", "has_write", "gshare_accuracy",
)
#: static aliases into the stream's PackedTrace
_STREAM_FIELDS = ("task_seq", "has_remote_consumer")
_PACKED_FIELDS = frozenset(
    _TRACE_FIELDS + _STREAM_FIELDS + ("packed", "release_now")
)


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

        n = len(stream.trace)
        #: completion cycle per executed instruction (-1 = not executed)
        self.complete: List[int] = [-1] * n
        #: cycle the produced register value is available on the ring
        self.forward: List[int] = [-1] * n
        #: squash incarnation per dynamic task
        self.generation: List[int] = [0] * len(stream.tasks)
        #: PU that last executed each dynamic task
        self.pu_of_seq: List[int] = [-1] * len(stream.tasks)

    def __getattr__(self, name: str):
        # Only reached for attributes not yet set: the static aliases
        # are bound, all at once, the first time one is read.
        if name not in _PACKED_FIELDS:
            raise AttributeError(name)
        self._alias_packing()
        return self.__dict__[name]

    def _alias_packing(self) -> None:
        packed = self.stream.packed
        arrays = packed.arrays
        self.packed = packed
        for name in _TRACE_FIELDS:
            setattr(self, name, getattr(arrays, name))
        for name in _STREAM_FIELDS:
            setattr(self, name, getattr(packed, name))
        self.release_now = packed.release_now(
            self.config.forward_policy, self.release_analysis
        )

    def clear_span(self, seq: int) -> None:
        """Reset execution state of dynamic task ``seq`` after a squash."""
        dyn_task = self.stream.tasks[seq]
        start, end = dyn_task.start, dyn_task.end
        self.complete[start:end] = [-1] * (end - start)
        self.forward[start:end] = [-1] * (end - start)
        self.generation[seq] += 1

    @property
    def branch_count(self) -> int:
        """Dynamic conditional branches in the trace."""
        return self.stream.trace.conditional_branch_count()
