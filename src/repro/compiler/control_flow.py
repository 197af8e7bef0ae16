"""The control flow heuristic: terminal rules and greedy task growth.

This is the paper's basic selection process (Section 3.1) plus the
control flow heuristic (Section 3.3):

* **Terminal nodes** — blocks whose successors are never included in
  the same task: returns, halts, and calls to non-absorbed functions.
* **Terminal edges** — CFG back edges (``dfs_num`` test), loop entry
  edges, and loop exit edges.  (The OCR of Figure 3 inverts these
  predicates; we implement the semantics of the prose.)
* **Greedy growth with feasible-task tracking** — exploration
  continues past the N-target limit hoping for reconvergence; the
  final task is the longest inclusion prefix with at most N targets.

The same grower serves the data dependence heuristic via the
``policy`` hook: a :class:`GrowthPolicy` observes inclusions and vetoes
candidate blocks (the paper's ``codependent()`` steering).
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.compiler.heuristics import SelectionConfig
from repro.compiler.task import Target, TargetKind
from repro.ir.analysis import FunctionAnalysis
from repro.ir.block import BasicBlock, BlockId
from repro.ir.program import Program


class GrowthPolicy:
    """Steering hook for task growth.

    The default policy is the pure control flow heuristic: every
    non-terminal child is explored.  The data dependence heuristic
    subclasses this (``repro.compiler.data_dependence``).
    """

    def on_include(self, label: str) -> None:
        """Called once per block included into the growing task."""

    def allow(self, parent: str, child: str) -> bool:
        """May ``child`` be explored from ``parent``?"""
        return True


class GrowthContext:
    """Per-function state shared by all task-growth calls.

    ``analysis`` holds the function's CFG and the facts the growth
    policies read (:mod:`repro.ir.analysis`).
    """

    def __init__(
        self,
        program: Program,
        function_name: str,
        analysis: FunctionAnalysis,
        config: SelectionConfig,
        absorbed_functions: Optional[Set[str]] = None,
    ) -> None:
        self.program = program
        self.function_name = function_name
        self.analysis = analysis
        self.cfg = analysis.cfg
        self.config = config
        self.absorbed_functions = absorbed_functions or set()

    # ------------------------------------------------------ terminal rules

    def _block(self, label: str) -> BasicBlock:
        return self.program.function(self.function_name).block(label)

    def call_is_absorbed(self, label: str) -> bool:
        """True if the call ending block ``label`` is absorbed in-task."""
        blk = self._block(label)
        term = blk.terminator
        if term is None or term.target is None or not blk.ends_in_call:
            return False
        return term.target in self.absorbed_functions

    def is_terminal_node(self, label: str) -> bool:
        """Successors of terminal nodes never join the node's task."""
        blk = self._block(label)
        if blk.ends_in_return or blk.ends_in_halt:
            return True
        if blk.ends_in_call and not self.call_is_absorbed(label):
            return True
        return False

    def is_terminal_edge(self, src: str, dst: str) -> bool:
        """Back edges and loop entry/exit edges terminate tasks."""
        cfg = self.cfg
        return (
            cfg.is_back_edge(src, dst)
            or cfg.is_loop_entry_edge(src, dst)
            or cfg.is_loop_exit_edge(src, dst)
        )

    # -------------------------------------------------------- task targets

    def compute_targets(self, members: Set[str]) -> List[Target]:
        """Ordered distinct successors of the block set ``members``."""
        fn = self.function_name
        targets: Set[Target] = set()
        for label in members:
            blk = self._block(label)
            if blk.ends_in_return:
                targets.add(Target(TargetKind.RETURN))
                continue
            if blk.ends_in_halt:
                targets.add(Target(TargetKind.HALT))
                continue
            if blk.ends_in_call and not self.call_is_absorbed(label):
                term = blk.terminator
                assert term is not None and term.target is not None
                callee = self.program.function(term.target)
                assert callee.entry_label is not None
                targets.add(
                    Target(TargetKind.CALL, (term.target, callee.entry_label))
                )
                continue
            for succ in blk.successor_labels():
                if succ not in members or self.is_terminal_edge(label, succ):
                    targets.add(Target(TargetKind.BLOCK, (fn, succ)))
        return sorted(targets)

    def compute_internal_edges(
        self, members: Set[str]
    ) -> Set[Tuple[BlockId, BlockId]]:
        """Edges along which a dynamic instance stays inside the task."""
        fn = self.function_name
        edges: Set[Tuple[BlockId, BlockId]] = set()
        for label in members:
            if self.is_terminal_node(label):
                continue
            for succ in self._block(label).successor_labels():
                if succ in members and not self.is_terminal_edge(label, succ):
                    edges.add(((fn, label), (fn, succ)))
        return edges

    def absorbed_call_blocks(self, members: Set[str]) -> Set[BlockId]:
        """Member blocks whose call is absorbed into the task."""
        fn = self.function_name
        return {
            (fn, label)
            for label in members
            if self._block(label).ends_in_call and self.call_is_absorbed(label)
        }

    # -------------------------------------------------------------- growth

    def grow(self, root: str, policy: Optional[GrowthPolicy] = None) -> Set[str]:
        """Grow a task block set from ``root``; return the member labels.

        Growth is greedy BFS (the paper's worklist order): exploration
        continues past the N-target limit hoping for reconverging
        paths, and the longest feasible inclusion prefix (at most N
        targets) wins.  ``policy`` may veto candidate blocks (the data
        dependence heuristic).  ``config.traversal == "dfs"`` switches
        the frontier to a stack — same terminal rules and feasibility
        tracking, different inclusion order, hence different feasible
        prefixes (an autotuner gene; ``"bfs"`` is bit-identical to the
        reference pipeline).
        """
        if not self.config.multi_block:
            return {root}
        if policy is None:
            policy = GrowthPolicy()
        max_targets = self.config.max_targets
        dfs = self.config.traversal == "dfs"

        inclusion: List[str] = []
        members: Set[str] = set()

        def include(label: str) -> None:
            members.add(label)
            inclusion.append(label)
            policy.on_include(label)

        include(root)
        best_len = 1 if len(self.compute_targets(members)) <= max_targets else 0

        queue: List[str] = [root]
        qi = 0
        while queue if dfs else qi < len(queue):
            if dfs:
                label = queue.pop()
            else:
                label = queue[qi]
                qi += 1
            if self.is_terminal_node(label):
                continue
            succs = self._block(label).successor_labels()
            # A DFS stack pops from the end; reverse so the first
            # successor is explored first, mirroring the BFS order.
            for succ in (reversed(succs) if dfs else succs):
                if succ in members:
                    continue
                if self.is_terminal_edge(label, succ):
                    continue
                if not policy.allow(label, succ):
                    continue
                include(succ)
                queue.append(succ)
                if len(self.compute_targets(members)) <= max_targets:
                    best_len = len(inclusion)

        return set(inclusion[: max(best_len, 1)])
