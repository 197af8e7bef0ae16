"""The data dependence heuristic (Section 3.4, Figure 3).

The paper's ``dependence_task()`` integrates dependence steering into
the CFG traversal: a basic block is explored "only if it is dependent
on other basic blocks included in the task" — concretely, only blocks
in the *codependent set* of some dependence whose producer is already
in the task.  Combined with the observation that "the data dependence
heuristic terminates tasks as soon as a data dependence is included",
this yields the growth policy implemented here:

* while the task contains no dependence producer, grow exactly like
  the control flow heuristic (adjacent blocks, reconvergence);
* once one or more dependences are *open* (producer included, consumer
  not yet), explore only blocks on forward paths to an open consumer;
* once dependences have been *closed* (producer and consumer both
  included) and nothing remains open, stop growing.

Dependences are the function's register def-use chains, ranked by
profiled dynamic frequency
(:meth:`~repro.ir.analysis.FunctionAnalysis.ranking`, shared by every
selection of one transformed program); loop-carried dependences
(consumer only reachable through a back edge) have an empty
codependent set and are ignored here — they are inherently inter-task
and are handled by induction hoisting and the register ring.
"""

from __future__ import annotations

from typing import Dict, List

from repro.compiler.control_flow import GrowthPolicy
from repro.compiler.heuristics import SelectionConfig
from repro.ir.analysis import FunctionAnalysis
from repro.ir.function import Function
from repro.profiling import Profile


class DependenceBook:
    """Per-function dependence index, shared across all task growths."""

    def __init__(
        self,
        function: Function,
        analysis: FunctionAnalysis,
        profile: Profile,
        config: SelectionConfig,
    ) -> None:
        self.cfg = analysis.cfg
        # At most ``config.max_dependences`` (a compile-time guard): a
        # capped ranking is a prefix of the shared uncapped one.
        self.dependences = analysis.ranking(function, profile)[
            : config.max_dependences
        ]
        self.by_producer: Dict[str, List[int]] = {}
        self.by_consumer: Dict[str, List[int]] = {}
        for idx, dep in enumerate(self.dependences):
            self.by_producer.setdefault(dep.edge.def_block, []).append(idx)
            self.by_consumer.setdefault(dep.edge.use_block, []).append(idx)

    def policy(self) -> "DependencePolicy":
        """A fresh growth policy for one task growth."""
        return DependencePolicy(self)

    def reconverges(self, label: str) -> bool:
        """``label`` is a static join point (>= 2 CFG predecessors).

        Reconverging paths are the control flow heuristic's core asset
        ("reconverging control flow paths can be exploited") and the
        data dependence heuristic is applied *in conjunction with* it,
        so join blocks stay included even when no dependence pulls
        growth toward them — including joins whose other arm is cold
        (a never-profiled side path has no ranked dependences at all).
        The cost model admits them unscored for the same reason.
        """
        return len(self.cfg.preds.get(label, ())) >= 2


class DependencePolicy(GrowthPolicy):
    """Stateful dependence steering for a single task growth."""

    def __init__(self, book: DependenceBook) -> None:
        self.book = book
        self.members: set = set()
        self.open: set = set()  # dependence indices: producer in, consumer out
        self.closed_any = False

    def on_include(self, label: str) -> None:
        self.members.add(label)
        # Close open dependences whose consumer just arrived.
        for idx in self.book.by_consumer.get(label, ()):
            if idx in self.open:
                self.open.discard(idx)
                self.closed_any = True
        # Open dependences produced here (unless already satisfied).
        for idx in self.book.by_producer.get(label, ()):
            dep = self.book.dependences[idx]
            if dep.edge.use_block in self.members:
                self.closed_any = True
            else:
                self.open.add(idx)

    def allow(self, parent: str, child: str) -> bool:
        if self.open:
            # Steer along codependent sets toward open consumers;
            # always admit reconvergence joins.
            deps = self.book.dependences
            if any(child in deps[idx].codependent for idx in self.open):
                return True
            return self.book.reconverges(child)
        if self.closed_any:
            # Dependences enclosed, nothing open: stop growing except
            # through joins ("terminates tasks as soon as a dependence
            # is included", tempered by the control flow heuristic).
            return self.book.reconverges(child)
        # No dependence encountered yet: plain control flow growth.
        return True
