"""Control flow graph analyses over IR functions.

Task selection (Section 3 of the paper) needs, per function:

* successor / predecessor maps,
* a depth-first numbering (the paper's ``dfs_num``, used to classify
  back edges as terminal),
* dominators and natural loops (headers, bodies, back edges), used by
  the task-size heuristic (loop unrolling, loop entry/exit edges
  terminate tasks).

All analyses are pure functions of the :class:`~repro.ir.function.Function`
and return a :class:`CFG` snapshot; rebuild after IR transforms.  A
snapshot keeps no reference to the function, so one can describe
every copy of it (:mod:`repro.ir.analysis`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.ir.function import Function

Edge = Tuple[str, str]
"""Intra-function CFG edge as ``(source_label, target_label)``."""


@dataclass
class Loop:
    """A natural loop: header, body blocks (incl. header), back edges."""

    header: str
    body: FrozenSet[str]
    back_edges: Tuple[Edge, ...]

    def __contains__(self, label: str) -> bool:
        return label in self.body

    @property
    def size_blocks(self) -> int:
        """Number of blocks in the loop body."""
        return len(self.body)


@dataclass
class CFG:
    """Immutable CFG snapshot of one function."""

    succs: Dict[str, List[str]]
    preds: Dict[str, List[str]]
    dfs_num: Dict[str, int]
    rpo: List[str]
    back_edges: Set[Edge]
    idom: Dict[str, Optional[str]]
    loops: List[Loop] = field(default_factory=list)

    # --------------------------------------------------------------- loops

    def loop_of_header(self, label: str) -> Optional[Loop]:
        """The loop headed at ``label``, or ``None``."""
        for loop in self.loops:
            if loop.header == label:
                return loop
        return None

    def innermost_loop(self, label: str) -> Optional[Loop]:
        """The smallest loop containing ``label``, or ``None``."""
        best: Optional[Loop] = None
        for loop in self.loops:
            if label in loop and (best is None or loop.size_blocks < best.size_blocks):
                best = loop
        return best

    def is_loop_header(self, label: str) -> bool:
        """True if ``label`` heads a natural loop."""
        return any(loop.header == label for loop in self.loops)

    def is_back_edge(self, src: str, dst: str) -> bool:
        """True if ``src -> dst`` is a DFS back edge."""
        return (src, dst) in self.back_edges

    def is_loop_entry_edge(self, src: str, dst: str) -> bool:
        """True if the edge enters a loop from outside (not a back edge)."""
        if self.is_back_edge(src, dst):
            return False
        for loop in self.loops:
            if dst in loop and src not in loop:
                return True
        return False

    def is_loop_exit_edge(self, src: str, dst: str) -> bool:
        """True if the edge leaves some loop containing ``src``."""
        for loop in self.loops:
            if src in loop and dst not in loop:
                return True
        return False

    def dominates(self, a: str, b: str) -> bool:
        """True if block ``a`` dominates block ``b``."""
        node: Optional[str] = b
        while node is not None:
            if node == a:
                return True
            node = self.idom[node]
        return False

    # --------------------------------------------------------- reachability

    def reachable_between(self, src: str, dst: str) -> Set[str]:
        """Blocks on some path ``src -> ... -> dst`` (inclusive).

        Paths may not traverse back edges (tasks are acyclic inside,
        so the codependent set of a def-use pair only needs forward
        paths).  Returns the empty set if no such path exists.  This
        per-pair search is the reference for
        :meth:`~repro.ir.analysis.FunctionAnalysis.codependent`, which
        selection uses.
        """
        forward: Set[str] = set()
        stack = [src]
        while stack:
            node = stack.pop()
            if node in forward:
                continue
            forward.add(node)
            for nxt in self.succs[node]:
                if not self.is_back_edge(node, nxt):
                    stack.append(nxt)
        if dst not in forward:
            return set()
        # Backward sweep from dst restricted to forward-reachable nodes.
        on_path: Set[str] = set()
        stack = [dst]
        while stack:
            node = stack.pop()
            if node in on_path:
                continue
            on_path.add(node)
            for prev in self.preds[node]:
                if prev in forward and not self.is_back_edge(prev, node):
                    stack.append(prev)
        return on_path


def build_cfg(function: Function) -> CFG:
    """Compute the full CFG snapshot of ``function``."""
    succs: Dict[str, List[str]] = {}
    preds: Dict[str, List[str]] = {lbl: [] for lbl in function.labels()}
    for blk in function.blocks():
        succs[blk.label] = blk.successor_labels()
    for src, targets in succs.items():
        for dst in targets:
            preds[dst].append(src)

    dfs_num, back_edges = _dfs(function.entry_label or "", succs)
    rpo = _reverse_postorder(function.entry_label or "", succs)
    idom = _dominators(function.entry_label or "", rpo, preds)
    loops = _natural_loops(back_edges, preds, idom, rpo)
    return CFG(
        succs=succs,
        preds=preds,
        dfs_num=dfs_num,
        rpo=rpo,
        back_edges=back_edges,
        idom=idom,
        loops=loops,
    )


def _dfs(entry: str, succs: Dict[str, List[str]]) -> Tuple[Dict[str, int], Set[Edge]]:
    """Iterative DFS: preorder numbers and back edges (to an ancestor)."""
    dfs_num: Dict[str, int] = {}
    back_edges: Set[Edge] = set()
    on_stack: Set[str] = set()
    counter = 0
    # Stack of (node, iterator-state) simulated with explicit index.
    stack: List[Tuple[str, int]] = [(entry, 0)]
    dfs_num[entry] = counter
    counter += 1
    on_stack.add(entry)
    while stack:
        node, idx = stack[-1]
        children = succs.get(node, [])
        if idx < len(children):
            stack[-1] = (node, idx + 1)
            child = children[idx]
            if child not in dfs_num:
                dfs_num[child] = counter
                counter += 1
                on_stack.add(child)
                stack.append((child, 0))
            elif child in on_stack:
                back_edges.add((node, child))
        else:
            stack.pop()
            on_stack.discard(node)
    return dfs_num, back_edges


def _reverse_postorder(entry: str, succs: Dict[str, List[str]]) -> List[str]:
    """Reverse postorder of reachable blocks."""
    post: List[str] = []
    visited: Set[str] = {entry}
    stack: List[Tuple[str, int]] = [(entry, 0)]
    while stack:
        node, idx = stack[-1]
        children = succs.get(node, [])
        if idx < len(children):
            stack[-1] = (node, idx + 1)
            child = children[idx]
            if child not in visited:
                visited.add(child)
                stack.append((child, 0))
        else:
            stack.pop()
            post.append(node)
    post.reverse()
    return post


def _dominators(
    entry: str, rpo: List[str], preds: Dict[str, List[str]]
) -> Dict[str, Optional[str]]:
    """Cooper-Harvey-Kennedy iterative immediate-dominator computation."""
    order = {label: i for i, label in enumerate(rpo)}
    idom: Dict[str, Optional[str]] = {label: None for label in rpo}
    idom[entry] = entry

    def intersect(a: str, b: str) -> str:
        while a != b:
            while order[a] > order[b]:
                a = idom[a]  # type: ignore[assignment]
            while order[b] > order[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for node in rpo:
            if node == entry:
                continue
            candidates = [p for p in preds[node] if p in order and idom[p] is not None]
            if not candidates:
                continue
            new_idom = candidates[0]
            for p in candidates[1:]:
                new_idom = intersect(new_idom, p)
            if idom[node] != new_idom:
                idom[node] = new_idom
                changed = True
    idom[entry] = None
    return idom


def _natural_loops(
    back_edges: Set[Edge],
    preds: Dict[str, List[str]],
    idom: Dict[str, Optional[str]],
    rpo: List[str],
) -> List[Loop]:
    """Natural loops from back edges whose target dominates the source.

    Back edges to non-dominating targets (irreducible flow) still
    terminate tasks via the DFS back-edge rule but do not form a
    :class:`Loop`.
    """
    reachable = set(rpo)
    by_header: Dict[str, Tuple[Set[str], List[Edge]]] = {}
    for src, header in sorted(back_edges):
        if src not in reachable or header not in reachable:
            continue
        if not _dominates(idom, header, src):
            continue
        body, edges = by_header.setdefault(header, ({header}, []))
        edges.append((src, header))
        stack = [src]
        while stack:
            node = stack.pop()
            if node in body:
                continue
            body.add(node)
            stack.extend(p for p in preds[node] if p in reachable)
    loops = [
        Loop(header=h, body=frozenset(body), back_edges=tuple(edges))
        for h, (body, edges) in by_header.items()
    ]
    loops.sort(key=lambda lp: (len(lp.body), lp.header))
    return loops


def _dominates(idom: Dict[str, Optional[str]], a: str, b: str) -> bool:
    node: Optional[str] = b
    while node is not None:
        if node == a:
            return True
        node = idom.get(node)
    return False
