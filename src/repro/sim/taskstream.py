"""Splitting a dynamic trace into dynamic task instances.

A dynamic task (Section 2.2) is a contiguous fragment of the dynamic
instruction stream: execution stays in the current static task while
it follows internal edges (and while inside absorbed callees) and
leaves it at the first non-internal transition.  Because tasks are
entered only at their root, every boundary lands on a block with a
rooted task — guaranteed by ``TaskPartition.validate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.compiler.task import Target, TargetKind, Task, TaskPartition
from repro.ir.block import BlockId
from repro.ir.instructions import Opcode
from repro.ir.interp import Trace
from repro.sim.packed import PackedTrace


@dataclass
class DynTask:
    """One dynamic task instance: a contiguous span of the trace."""

    seq: int
    task: Task
    start: int  #: first trace index (inclusive)
    end: int  #: last trace index (exclusive)
    target: Optional[Target]  #: actual successor descriptor (None = HALT end)
    target_index: int  #: position of ``target`` in ``task.targets`` (-1 at end)
    next_root: Optional[BlockId]  #: root block of the next dynamic task

    @property
    def length(self) -> int:
        """Dynamic instructions in this instance."""
        return self.end - self.start


class TaskStream:
    """The full dynamic task sequence of one execution."""

    def __init__(
        self,
        trace: Trace,
        partition: TaskPartition,
        tasks: List[DynTask],
        absorbed_flags: bytearray,
    ) -> None:
        self.trace = trace
        self.partition = partition
        self.tasks = tasks
        #: per trace index: 1 when executed inside an absorbed callee
        self.absorbed_flags = absorbed_flags
        self._packed: Optional[PackedTrace] = None

    @property
    def packed(self) -> PackedTrace:
        """Flat per-instruction arrays, built lazily and shared.

        ``build_task_stream`` forces the build eagerly so the packing
        cost lands with compilation, not with the first machine run.
        """
        if self._packed is None:
            self._packed = PackedTrace(self)
        return self._packed

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)

    def __getitem__(self, index: int) -> DynTask:
        return self.tasks[index]

    @property
    def mean_task_size(self) -> float:
        """Average dynamic instructions per dynamic task."""
        if not self.tasks:
            return 0.0
        return len(self.trace) / len(self.tasks)

    def mean_control_transfers(self) -> float:
        """Average dynamic control transfer instructions per task."""
        if not self.tasks:
            return 0.0
        return self.trace.control_transfer_count() / len(self.tasks)

    def mean_conditional_branches(self) -> float:
        """Average dynamic conditional branches per task."""
        if not self.tasks:
            return 0.0
        branches = sum(1 for d in self.trace if d.op.is_branch)
        return branches / len(self.tasks)


class TaskStreamError(RuntimeError):
    """The partition cannot explain the dynamic control flow."""


def build_task_stream(trace: Trace, partition: TaskPartition) -> TaskStream:
    """Split ``trace`` into dynamic task instances under ``partition``."""
    entries = trace.block_entries
    insts = trace.insts
    if not entries:
        return TaskStream(trace, partition, [], bytearray())

    absorbed = bytearray(len(insts))
    tasks: List[DynTask] = []

    def task_at(root: BlockId) -> Task:
        try:
            return partition.task_at(root)
        except KeyError:
            raise TaskStreamError(f"no task rooted at {root}") from None

    cur_task = task_at(entries[0][1])
    cur_start = 0
    cur_block = entries[0][1]
    depth = 0  # absorbed-call nesting

    def close(end: int, target: Target, next_root: Optional[BlockId]) -> None:
        nonlocal cur_task, cur_start, cur_block
        try:
            index = cur_task.targets.index(target)
        except ValueError:
            raise TaskStreamError(
                f"task {cur_task.task_id} (root {cur_task.root}) reached "
                f"target {target} not in its target list {cur_task.targets}"
            ) from None
        tasks.append(
            DynTask(
                seq=len(tasks),
                task=cur_task,
                start=cur_start,
                end=end,
                target=target,
                target_index=index,
                next_root=next_root,
            )
        )
        cur_start = end
        if next_root is not None:
            cur_task = task_at(next_root)
            cur_block = next_root

    n_entries = len(entries)
    for k in range(1, n_entries):
        s, block = entries[k]
        span_end = entries[k + 1][0] if k + 1 < n_entries else len(insts)
        last = insts[s - 1]

        if depth > 0:
            if last.op is Opcode.CALL:
                depth += 1
            elif last.op is Opcode.RET:
                depth -= 1
                if depth == 0:
                    # Returned to the continuation block in the caller.
                    if not cur_task.is_internal(cur_block, block):
                        close(s, Target(TargetKind.BLOCK, block), block)
                    else:
                        cur_block = block
            if depth > 0:
                absorbed[s:span_end] = b"\x01" * (span_end - s)
            continue

        if last.op is Opcode.CALL:
            if last.block in cur_task.absorbed_calls:
                depth = 1
                absorbed[s:span_end] = b"\x01" * (span_end - s)
            else:
                assert last.callee is not None
                close(s, Target(TargetKind.CALL, block), block)
        elif last.op is Opcode.RET:
            close(s, Target(TargetKind.RETURN), block)
        else:
            if cur_task.is_internal(cur_block, block):
                cur_block = block
            else:
                close(s, Target(TargetKind.BLOCK, block), block)

    # Final task ends the program.
    final_op = insts[-1].op
    target = Target(TargetKind.HALT) if final_op is Opcode.HALT else None
    if target is not None:
        try:
            index = cur_task.targets.index(target)
        except ValueError:
            raise TaskStreamError(
                f"final task {cur_task.task_id} lacks a HALT target"
            ) from None
    else:
        index = -1
    tasks.append(
        DynTask(
            seq=len(tasks),
            task=cur_task,
            start=cur_start,
            end=len(insts),
            target=target,
            target_index=index,
            next_root=None,
        )
    )
    stream = TaskStream(trace, partition, tasks, absorbed)
    stream.packed  # pack eagerly: once per stream, shared by every run
    return stream
