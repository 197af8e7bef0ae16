"""What task selection reads about a function, computed once per program.

Task selection reads three facts of each function (Sections 3.3–3.4):
the CFG with its terminal edges, the register def-use chains of the
"traditional def-use dataflow equations", and the codependent set of
each profiled dependence.  They depend only on the function's code
(and the ranking of dependences on the program's profile), so every
selection of one transformed program can share them:
:class:`~repro.compiler.partition.TraceMemo` keeps one analysis per
program text, beside the program's trace and profile.

A :class:`FunctionAnalysis` builds the CFG at once and the rest on
first request:

* the def-use chains (:func:`~repro.ir.dataflow.def_use_chains`);
* the acyclic forward and backward reachability of a block: the blocks
  reachable from it, or reaching it, along paths that traverse no back
  edge (tasks are acyclic inside);
* the codependent set of a def-use edge, ``forward(def) &
  backward(use)`` when ``use`` is in ``forward(def)`` and empty
  otherwise.  Every block of that intersection lies on a forward path
  from producer to consumer, so it equals the per-edge search of
  :meth:`~repro.ir.cfg.CFG.reachable_between`;
* the profiled dependence ranking the data dependence heuristic and
  the cost model read.

An analysis keeps no reference to the function it describes: a memo
shares it among every copy of a program, so the methods that read
code take the function (any of those equal copies) as an argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.ir.cfg import Edge, build_cfg
from repro.ir.dataflow import DefUseEdge, def_use_chains
from repro.ir.function import Function
from repro.ir.program import Program

if TYPE_CHECKING:
    from repro.profiling import Profile


@dataclass(frozen=True)
class RankedDependence:
    """A profiled def-use dependence with its codependent block set."""

    frequency: int
    edge: DefUseEdge
    codependent: FrozenSet[str]


class FunctionAnalysis:
    """The CFG, def-use chains, acyclic reachability and dependence
    ranking of one function."""

    def __init__(self, function: Function) -> None:
        self.name = function.name
        self.cfg = build_cfg(function)
        self._chains: Optional[List[DefUseEdge]] = None
        self._forward: Dict[str, FrozenSet[str]] = {}
        self._backward: Dict[str, FrozenSet[str]] = {}
        self._ranking: Optional[Tuple["Profile", List[RankedDependence]]] = None

    def chains(self, function: Function) -> List[DefUseEdge]:
        """All register def-use edges of ``function``, sorted."""
        if self._chains is None:
            self._chains = def_use_chains(function, self.cfg)
        return self._chains

    def forward(self, label: str) -> FrozenSet[str]:
        """Blocks reachable from ``label`` without a back edge (inclusive)."""
        found = self._forward.get(label)
        if found is None:
            found = self._forward[label] = _acyclic_sweep(
                label, self.cfg.succs, self.cfg.back_edges, reverse=False
            )
        return found

    def backward(self, label: str) -> FrozenSet[str]:
        """Blocks that reach ``label`` without a back edge (inclusive)."""
        found = self._backward.get(label)
        if found is None:
            found = self._backward[label] = _acyclic_sweep(
                label, self.cfg.preds, self.cfg.back_edges, reverse=True
            )
        return found

    def codependent(self, edge: DefUseEdge) -> FrozenSet[str]:
        """Blocks on any forward path from producer to consumer block
        (the paper's codependent set; just the block for an
        intra-block edge, empty for a loop-carried one)."""
        if not edge.crosses_blocks:
            return frozenset((edge.def_block,))
        forward = self.forward(edge.def_block)
        if edge.use_block not in forward:
            return frozenset()
        return forward & self.backward(edge.use_block)

    def ranking(
        self, function: Function, profile: "Profile"
    ) -> List[RankedDependence]:
        """Inter-block def-use edges, most dynamically frequent first.

        Never-executed dependences and dependences with no forward
        producer→consumer path (loop-carried) are dropped; ties break
        on the edge's deterministic sort key.  The ranking is
        uncapped and kept for ``profile``: a ranking capped at ``n``
        dependences is its first ``n`` entries.
        """
        if self._ranking is not None and self._ranking[0] is profile:
            return self._ranking[1]
        counted: List[Tuple[int, DefUseEdge]] = []
        for edge in self.chains(function):
            if not edge.crosses_blocks:
                continue
            freq = profile.defuse_count(self.name, edge)
            if freq > 0:
                counted.append((freq, edge))
        counted.sort(
            key=lambda item: (
                -item[0],
                item[1].def_block,
                item[1].def_index,
                item[1].use_block,
                item[1].use_index,
                item[1].register,
            )
        )
        ranked: List[RankedDependence] = []
        for freq, edge in counted:
            codep = self.codependent(edge)
            if codep:
                ranked.append(RankedDependence(freq, edge, codep))
        self._ranking = (profile, ranked)
        return ranked


def analyze_program(program: Program) -> Dict[str, FunctionAnalysis]:
    """A :class:`FunctionAnalysis` per function of ``program``, by name."""
    return {fn.name: FunctionAnalysis(fn) for fn in program.functions()}


def _acyclic_sweep(
    start: str,
    step: Dict[str, List[str]],
    back_edges: Set[Edge],
    reverse: bool,
) -> FrozenSet[str]:
    """Blocks reached from ``start`` along ``step`` edges (successors,
    or predecessors when ``reverse``) that are not back edges."""
    seen: Set[str] = set()
    stack = [start]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        for nxt in step[node]:
            if ((nxt, node) if reverse else (node, nxt)) not in back_edges:
                stack.append(nxt)
    return frozenset(seen)
