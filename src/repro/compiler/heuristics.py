"""Heuristic levels and thresholds for task selection.

The paper evaluates a progression of heuristics (Sections 3.2–3.4,
Figure 5):

* ``BASIC_BLOCK`` — every basic block is a task (the baseline).
* ``CONTROL_FLOW`` — multi-block tasks grown greedily over the CFG,
  exploiting reconverging paths, with at most N successors (feasible
  task tracking); loop back/entry/exit edges and calls/returns
  terminate tasks.
* ``DATA_DEPENDENCE`` — applied on top of the control flow heuristic:
  profiled register def-use dependences, in decreasing frequency
  order, steer growth along codependent sets so dependences are
  enclosed or favourably scheduled.
* ``TASK_SIZE`` — additionally unrolls loops with bodies smaller than
  LOOP_THRESH static instructions and absorbs calls to functions
  smaller than CALL_THRESH dynamic instructions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Tuple


class HeuristicLevel(enum.Enum):
    """The paper's cumulative heuristic progression."""

    BASIC_BLOCK = "basic_block"
    CONTROL_FLOW = "control_flow"
    DATA_DEPENDENCE = "data_dependence"
    TASK_SIZE = "task_size"

    @property
    def rank(self) -> int:
        """Position in the progression (higher = more heuristics)."""
        return _RANK[self]


_RANK = {
    HeuristicLevel.BASIC_BLOCK: 0,
    HeuristicLevel.CONTROL_FLOW: 1,
    HeuristicLevel.DATA_DEPENDENCE: 2,
    HeuristicLevel.TASK_SIZE: 3,
}


@dataclass(frozen=True)
class SelectionConfig:
    """Task-selection parameters (defaults match Section 3.2 / 4.2)."""

    level: HeuristicLevel = HeuristicLevel.DATA_DEPENDENCE
    #: N — successors the hardware prediction tables can track
    max_targets: int = 4
    #: calls to functions with fewer dynamic instructions are absorbed
    call_thresh: int = 30
    #: loop bodies with fewer static instructions are unrolled up to it
    loop_thresh: int = 30
    #: cap on the unroll factor (guards degenerate 1-instruction loops)
    max_unroll: int = 8
    #: hoist induction-variable increments to loop tops (Section 3.3)
    hoist_induction: bool = True
    #: schedule loop-carried chains early within blocks (Section 3.3 / [18])
    schedule_communication: bool = True
    #: cap on profiled def-use dependences processed per function
    max_dependences: int = 512
    #: selection strategy name ("" = the paper reference strategy for
    #: ``level``); see :mod:`repro.compiler.strategy` for the registry
    strategy: str = ""
    #: machine preset the selection is tuned for ("" = the paper
    #: machine).  Only the ``cost_model`` strategy reads it — it
    #: reweights the growth policy by the target's ring reach and
    #: issue width (see :func:`repro.compiler.strategy.policy_weights`)
    machine_hint: str = ""
    #: CFG exploration order during task growth ("bfs" = the paper's
    #: worklist order; "dfs" explores depth-first — a tunable gene)
    traversal: str = "bfs"

    def __post_init__(self) -> None:
        if self.max_targets < 1:
            raise ValueError("max_targets must be >= 1")
        if self.max_unroll < 1:
            raise ValueError("max_unroll must be >= 1")
        if self.traversal not in ("bfs", "dfs"):
            raise ValueError(
                f"traversal must be 'bfs' or 'dfs', got {self.traversal!r}"
            )

    def cache_key(self) -> Tuple:
        """Explicit, collision-free compile-cache identity.

        Covers **every** dataclass field by name, so a newly added
        genome field can never silently alias cache entries the way a
        hand-picked tuple once did.  ``strategy=""`` and the
        spelled-out reference strategy name run the same code but are
        distinct identities: they never share cached artifacts.
        Field values are reduced to primitives: enums by value —
        nothing here may depend on ``hash()`` or object identity.
        """
        items = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, enum.Enum):
                value = value.value
            items.append((f.name, value))
        return (type(self).__name__,) + tuple(items)

    @property
    def multi_block(self) -> bool:
        """True when tasks may span multiple basic blocks."""
        return self.level is not HeuristicLevel.BASIC_BLOCK

    @property
    def use_data_dependence(self) -> bool:
        """True when the data dependence heuristic steers growth."""
        return self.level.rank >= HeuristicLevel.DATA_DEPENDENCE.rank

    @property
    def use_task_size(self) -> bool:
        """True when unrolling / call absorption are applied."""
        return self.level is HeuristicLevel.TASK_SIZE
