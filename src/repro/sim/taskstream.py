"""Splitting a dynamic trace into dynamic task instances.

A dynamic task (Section 2.2) is a contiguous fragment of the dynamic
instruction stream: execution stays in the current static task while
it follows internal edges (and while inside absorbed callees) and
leaves it at the first non-internal transition.  Because tasks are
entered only at their root, every boundary lands on a block with a
rooted task — guaranteed by ``TaskPartition.validate``.

:func:`build_task_stream` walks the trace's block entries, not its
instructions: it classifies each entry by the terminator of the
entry before it, and emits the task table the native cycle loop
reads, one row of int64 words per dynamic task (see
:class:`TaskStream`).  A :class:`TaskStream` is what both timing
engines replay.  :attr:`TaskStream.tasks` is a sequence over the
table's rows whose elements, :class:`DynTask` objects, are built the
first time one is read (by the reference loop, the monitors or
tests).  The SCHEDULE release flags are computed once and shared by
every run; the reference engine's packed arrays
(:attr:`TaskStream.packed`) are built only when ``_tick`` first needs
them.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from operator import sub
from typing import Dict, Iterator, List, Optional, Tuple

from repro.compiler.regcomm import ReleaseAnalysis
from repro.compiler.task import Target, TargetKind, Task, TaskPartition
from repro.ir.block import BlockId
from repro.ir.instructions import Opcode
from repro.ir.interp import Trace
from repro.sim.packed import PackedTrace

#: task table columns, as native.c's T_* enum
T_START, T_END, T_PC, T_TARGET, T_KIND, T_NEXT_ROOT, T_CONT, T_COLS = range(8)
#: T_KIND values, as native.c's K_* enum: no successor (the final task
#: of a trace that does not HALT), CALL, RETURN, and BLOCK or HALT
K_NONE, K_CALL, K_RETURN, K_OTHER = range(4)
_KIND = {TargetKind.CALL: K_CALL, TargetKind.RETURN: K_RETURN,
         TargetKind.BLOCK: K_OTHER, TargetKind.HALT: K_OTHER}


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


class TaskView(Sequence):
    """:attr:`TaskStream.tasks`: the task table's rows as
    :class:`DynTask` objects.

    Its length is the row count.  Reading an element builds every
    row's :class:`DynTask` once; the stream keeps them.
    """

    def __init__(self, stream: "TaskStream") -> None:
        self._stream = stream

    def __len__(self) -> int:
        return len(self._stream.table) // T_COLS

    def __getitem__(self, index):
        return self._stream._dyn_tasks()[index]

    def __iter__(self) -> Iterator[DynTask]:
        return iter(self._stream._dyn_tasks())


class TaskStream:
    """The full dynamic task sequence of one execution.

    :attr:`table` holds :data:`T_COLS` int64 words per dynamic task:
    its first trace index, its end (exclusive), the pc of its root
    block, the position of its actual successor in its target list
    (-1 for none), the ``K_*`` kind of that successor, the id of the
    next task's root (-1 at the end) and, for a CALL, the id of the
    root the callee returns to (-1 otherwise).  Ids index
    :attr:`roots`; id 0 is the first task's root, and every later
    task's root is the row before's next root.
    """

    def __init__(
        self,
        trace: Trace,
        partition: TaskPartition,
        table: array,
        roots: List[BlockId],
        absorbed_flags: bytearray,
    ) -> None:
        self.trace = trace
        self.partition = partition
        self.table = table
        #: root blocks interned to the table's ids
        self.roots = roots
        #: per trace index: 1 when executed inside an absorbed callee
        self.absorbed_flags = absorbed_flags
        self.tasks = TaskView(self)
        self._dyn_list: Optional[List[DynTask]] = None
        self._packed: Optional[PackedTrace] = None
        #: the SCHEDULE release flags and the analysis they came from
        self._release: Optional[Tuple[ReleaseAnalysis, bytearray]] = None

    def __getstate__(self):
        # A pickled stream carries the table, not what is built from it.
        state = self.__dict__.copy()
        state["_dyn_list"] = None
        state["_packed"] = None
        return state

    def _dyn_tasks(self) -> List[DynTask]:
        if self._dyn_list is None:
            table = self.table
            roots = self.roots
            dyn_tasks = []
            for seq, (task, start, end) in enumerate(_row_tasks(self)):
                index = table[seq * T_COLS + T_TARGET]
                next_root = table[seq * T_COLS + T_NEXT_ROOT]
                dyn_tasks.append(DynTask(
                    seq=seq,
                    task=task,
                    start=start,
                    end=end,
                    target=task.targets[index] if index >= 0 else None,
                    target_index=index,
                    next_root=roots[next_root] if next_root >= 0 else None,
                ))
            self._dyn_list = dyn_tasks
        return self._dyn_list

    def continuation_root(self, seq: int) -> BlockId:
        """Root of the task entered when the callee of CALL task
        ``seq`` returns."""
        return self.roots[self.table[seq * T_COLS + T_CONT]]

    def task_lengths(self) -> Iterator[int]:
        """Dynamic instructions per dynamic task, in order."""
        table = self.table
        return map(sub, table[T_END::T_COLS], table[T_START::T_COLS])

    @property
    def packed(self) -> PackedTrace:
        """The reference engine's per-instruction arrays, built on
        first use and shared by every reference run of the stream."""
        if self._packed is None:
            self._packed = PackedTrace(self)
        return self._packed

    def schedule_release(
        self, release: Optional[ReleaseAnalysis] = None
    ) -> bytearray:
        """Per-instruction "forward at completion" flags under
        :attr:`~repro.sim.config.ForwardPolicy.SCHEDULE`.

        ``release`` is the analysis to consult; when ``None`` the flags
        already computed are returned, or a canonical analysis of the
        partition is built.  A different analysis object gets a fresh
        computation instead of a stale alias.
        """
        cached = self._release
        if cached is not None and (release is None or cached[0] is release):
            return cached[1]
        if release is None:
            release = ReleaseAnalysis(self.partition)
        flags = _release_flags(self, release)
        self._release = (release, flags)
        return flags

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
        return self.trace.conditional_branch_count() / len(self.tasks)


def _row_tasks(stream: TaskStream) -> Iterator[Tuple[Task, int, int]]:
    """(static task, start, end) of each row of ``stream``'s table."""
    table = stream.table
    roots = stream.roots
    task_at = stream.partition.task_at
    tasks: Dict[int, Task] = {}
    root = 0
    for row in range(0, len(table), T_COLS):
        task = tasks.get(root)
        if task is None:
            task = tasks[root] = task_at(roots[root])
        yield task, table[row + T_START], table[row + T_END]
        root = table[row + T_NEXT_ROOT]


def _release_flags(stream: TaskStream, release: ReleaseAnalysis) -> bytearray:
    """SCHEDULE flags, copied from one mask per (task, block).

    A write may forward at completion when no later instruction the
    task can still run redefines its register.  The answer depends only
    on the static position, and every block entry runs its whole
    block, so each (task, block) pair is analysed once into a mask of
    the block's instructions, keyed by the task root's pc and the
    block's pc.  The kernel copies a mask into every entry of that
    block in that task; absorbed callees' instructions never release.
    """
    program = stream.partition.program
    block_pc = program.block_pc
    masks: Dict[Tuple[int, int], bytearray] = {}
    for task in stream.partition.tasks():
        root_pc = block_pc(task.root)
        for block in task.blocks:
            mask = release.release_mask(task, block)
            if any(mask):
                masks[(root_pc, block_pc(block))] = mask
    # Imported here: the kernel's module imports this one.
    from repro.sim import native

    flags = native.release_flags(stream, masks)
    if flags is not None:
        return flags
    trace = stream.trace
    entries, pcs = trace.block_entries, trace.entry_pcs
    n_entries, n = len(entries), len(trace)
    flags = bytearray(n)
    absorbed = stream.absorbed_flags
    table = stream.table
    k = 0
    for row in range(0, len(table), T_COLS):
        root_pc, task_end = table[row + T_PC], table[row + T_END]
        while k < n_entries and entries[k][0] < task_end:
            start, pc = entries[k][0], pcs[k]
            k += 1
            end = entries[k][0] if k < n_entries else n
            mask = masks.get((root_pc, pc))
            if mask is not None and start < end and not absorbed[start]:
                flags[start:end] = mask
    return flags


class TaskStreamError(RuntimeError):
    """The partition cannot explain the dynamic control flow."""


def build_task_stream(trace: Trace, partition: TaskPartition) -> TaskStream:
    """Split ``trace`` into dynamic task instances under ``partition``."""
    entries = trace.block_entries
    n = len(trace)
    roots: List[BlockId] = []
    if not entries:
        return TaskStream(trace, partition, array("q"), roots, bytearray())

    absorbed = bytearray(n)
    program = trace.program
    root_pc = partition.program.block_pc
    root_ids: Dict[BlockId, int] = {}

    def intern(root: BlockId) -> int:
        rid = root_ids.get(root)
        if rid is None:
            rid = root_ids[root] = len(roots)
            roots.append(root)
        return rid

    # The opcode of each block's control transfer (None: it falls
    # through, possibly because it is empty).
    terminators: Dict[BlockId, Optional[Opcode]] = {}
    for func in program.functions():
        for blk in func.blocks():
            term = blk.terminator
            terminators[(func.name, blk.label)] = (
                None if term is None else term.opcode
            )

    #: root -> (task, {(kind code, target block): index}, root pc)
    rooted: Dict[BlockId, Tuple[Task, Dict, int]] = {}

    def enter(root: BlockId) -> Tuple[Task, Dict, int]:
        try:
            task = partition.task_at(root)
        except KeyError:
            raise TaskStreamError(f"no task rooted at {root}") from None
        index_of: Dict[Tuple[int, Optional[BlockId]], int] = {}
        for i, target in enumerate(task.targets):
            index_of.setdefault((_KIND[target.kind], target.block), i)
        info = rooted[root] = (task, index_of, root_pc(root))
        return info

    table: List[int] = []  # rows, packed into an array at the end
    first = entries[0][1]
    intern(first)
    cur_task, cur_targets, cur_pc = enter(first)
    cur_start = 0
    cur_block = first
    depth = 0  # absorbed-call nesting
    absorbed_from = 0
    prev_block = first
    prev_term = terminators[first]
    CALL, RET = Opcode.CALL, Opcode.RET
    for s, block in islice(entries, 1, None):
        # The transition into ``block`` ends the current task when it
        # goes to a target: (kind code, target block) below.
        code = 0
        if depth > 0:
            if prev_term is CALL:
                depth += 1
            elif prev_term is RET:
                depth -= 1
                if depth == 0:
                    # Returned to the continuation block in the caller.
                    absorbed[absorbed_from:s] = b"\x01" * (s - absorbed_from)
                    if (cur_block, block) in cur_task.internal_edges:
                        cur_block = block
                    else:
                        code, target = K_OTHER, block
        elif prev_term is CALL:
            if prev_block in cur_task.absorbed_calls:
                depth = 1
                absorbed_from = s
            else:
                code, target = K_CALL, block
        elif prev_term is RET:
            code, target = K_RETURN, None
        elif (cur_block, block) in cur_task.internal_edges:
            cur_block = block
        else:
            code, target = K_OTHER, block
        if code:
            index = cur_targets.get((code, target))
            if index is None:
                raise TaskStreamError(
                    f"task {cur_task.task_id} (root {cur_task.root}) "
                    f"reached target {_target(code, target)} not in its "
                    f"target list {cur_task.targets}"
                )
            cont = -1
            if code == K_CALL:
                fallthrough = program.block(prev_block).fallthrough
                assert fallthrough is not None
                cont = intern((prev_block[0], fallthrough))
            table.extend((cur_start, s, cur_pc, index, code, intern(block),
                          cont))
            cur_task, cur_targets, cur_pc = rooted.get(block) or enter(block)
            cur_start = s
            cur_block = block
        prev_block = block
        prev_term = terminators[block]
    if depth > 0:
        absorbed[absorbed_from:n] = b"\x01" * (n - absorbed_from)

    # Final task ends the program.
    if prev_term is Opcode.HALT:
        index = cur_targets.get((K_OTHER, None))
        if index is None:
            raise TaskStreamError(
                f"final task {cur_task.task_id} lacks a HALT target"
            )
        code = K_OTHER
    else:
        index, code = -1, K_NONE
    table.extend((cur_start, n, cur_pc, index, code, -1, -1))
    return TaskStream(trace, partition, array("q", table), roots, absorbed)


def _target(code: int, block: Optional[BlockId]) -> Target:
    """The :class:`Target` a kind code and target block stand for."""
    if code == K_CALL:
        return Target(TargetKind.CALL, block)
    if code == K_RETURN:
        return Target(TargetKind.RETURN)
    if block is None:
        return Target(TargetKind.HALT)
    return Target(TargetKind.BLOCK, block)
