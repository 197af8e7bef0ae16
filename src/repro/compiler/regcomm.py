"""Register communication release analysis ("dead register analysis").

A Multiscalar task forwards a register value to later tasks as soon as
the compiler can prove no later definition of that register can occur
inside the task (the last update on every path).  This module computes
*release points* per task: instruction positions whose write may be
forwarded immediately at completion.  Writes that are not release
points (a later path may redefine the register) are forwarded by an
inserted release instruction, modelled in the simulator as a
configurable lag or as a task-end forward.

Absorbed callees are treated conservatively: any register the callee
(or its transitive callees) may write counts as a potential later
definition, and writes executed *inside* an absorbed callee are never
release points.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.compiler.task import Task, TaskPartition
from repro.ir.block import BlockId
from repro.ir.program import Program


def function_write_sets(program: Program) -> Dict[str, FrozenSet[str]]:
    """Registers each function may write, inclusive of its callees.

    Computed as a fixpoint over the (possibly cyclic) call graph.
    """
    direct: Dict[str, Set[str]] = {}
    callees: Dict[str, Set[str]] = {}
    for func in program.functions():
        writes: Set[str] = set()
        for blk in func.blocks():
            for ins in blk.instructions:
                if ins.writes is not None:
                    writes.add(ins.writes)
        direct[func.name] = writes
        callees[func.name] = set(func.callees())

    result: Dict[str, Set[str]] = {name: set(ws) for name, ws in direct.items()}
    changed = True
    while changed:
        changed = False
        for name in result:
            for callee in callees[name]:
                extra = result.get(callee, set()) - result[name]
                if extra:
                    result[name] |= extra
                    changed = True
    return {name: frozenset(ws) for name, ws in result.items()}


class ReleaseAnalysis:
    """Per-task release points for every register write."""

    def __init__(self, partition: TaskPartition) -> None:
        self.partition = partition
        self.program = partition.program
        self._func_writes = function_write_sets(self.program)
        # (task_id, block) -> registers possibly defined strictly after
        # the block along internal edges.
        self._after_defs: Dict[Tuple[int, BlockId], FrozenSet[str]] = {}
        for task in partition.tasks():
            self._analyse_task(task)

    def _block_defs(self, task: Task, block_id: BlockId) -> Set[str]:
        """Registers possibly defined while executing ``block_id``."""
        blk = self.program.block(block_id)
        defs: Set[str] = set()
        for ins in blk.instructions:
            if ins.writes is not None:
                defs.add(ins.writes)
        if block_id in task.absorbed_calls:
            term = blk.terminator
            assert term is not None and term.target is not None
            defs |= self._func_writes[term.target]
        return defs

    def _analyse_task(self, task: Task) -> None:
        succs: Dict[BlockId, List[BlockId]] = {b: [] for b in task.blocks}
        indeg: Dict[BlockId, int] = {b: 0 for b in task.blocks}
        for src, dst in task.internal_edges:
            succs[src].append(dst)
            indeg[dst] += 1
        # Reverse topological order over the task DAG.
        order: List[BlockId] = []
        ready = [b for b in sorted(task.blocks) if indeg[b] == 0]
        while ready:
            node = ready.pop()
            order.append(node)
            for nxt in succs[node]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        after: Dict[BlockId, Set[str]] = {}
        for node in reversed(order):
            acc: Set[str] = set()
            for nxt in succs[node]:
                acc |= self._block_defs(task, nxt)
                acc |= after.get(nxt, set())
            after[node] = acc
        for block_id in task.blocks:
            self._after_defs[(task.task_id, block_id)] = frozenset(
                after.get(block_id, set())
            )

    def release_mask(self, task: Task, block_id: BlockId) -> bytearray:
        """:meth:`is_release` of every write in ``block_id`` under
        ``task``, one byte per instruction (1: release point)."""
        blk = self.program.block(block_id)
        later = set(self._after_defs[(task.task_id, block_id)])
        if block_id in task.absorbed_calls:
            term = blk.terminator
            assert term is not None and term.target is not None
            later |= self._func_writes[term.target]
        mask = bytearray(len(blk.instructions))
        for index in range(len(blk.instructions) - 1, -1, -1):
            register = blk.instructions[index].writes
            if register is not None:
                mask[index] = register not in later
                later.add(register)
        return mask

    def is_release(
        self, task: Task, block_id: BlockId, inst_index: int, register: str
    ) -> bool:
        """May the write of ``register`` at this position forward now?

        True when no instruction after ``inst_index`` in the block (nor
        the block's absorbed callee, nor any internally reachable
        block) can redefine ``register``.
        """
        blk = self.program.block(block_id)
        for ins in blk.instructions[inst_index + 1 :]:
            if ins.writes == register:
                return False
        if block_id in task.absorbed_calls:
            term = blk.terminator
            assert term is not None and term.target is not None
            if register in self._func_writes[term.target]:
                return False
        return register not in self._after_defs[(task.task_id, block_id)]
