"""Task-lifecycle trace collection for one machine run.

A :class:`TraceCollector` is attached to a machine the same way the
reliability monitor is — as a duck-typed constructor argument
(``MultiscalarMachine(..., tracer=collector)``): the simulator never
imports this package, every hook site is guarded by a single ``is not
None`` test, and a machine without a tracer pays nothing.

The collector records one stream, ``events``: every hook call
appended in order as a plain tuple.  The reference loop calls the
hooks live; the native loop logs the same calls and the machine
replays them after the run, so both engines produce byte-identical
streams on the same cell.  ``tests/test_telemetry.py`` sweeps a grid
to enforce this — the event stream is a finer-grained correctness
probe than the aggregate ``SimResult``.

Event tuples (first element is the kind):

========================  =====================================================
``("assign", seq, pu, cycle)``            task assigned to a PU
``("wrong_assign", pu, cycle)``           wrong-path work occupies a PU
``("task_mispredict", seq, cycle)``       successor of ``seq`` mispredicted
``("branch_mispredict", seq, idx, pu, cycle)``  gshare wrong-path fetch stall
``("arb_violation", seq, cycle, injected)``     memory dependence violation
``("squash", seq, pu, cycle, penalty, cause, first_issue)``  victim squashed
``("wrong_squash", pu, cycle, penalty)``  wrong-path occupancy reclaimed
``("commit", seq, pu, cycle)``            head task began committing
``("retire", seq, pu, cycle, first_issue, done)``  task retired
========================  =====================================================

``first_issue`` is the cycle the task's first instruction issued
(-1 if it never issued); ``cause`` is ``"memory"`` or ``"control"``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class TraceCollector:
    """Duck-typed machine tracer accumulating lifecycle events."""

    def __init__(self) -> None:
        #: the event stream (engine-independent, order matters)
        self.events: List[Tuple] = []
        self.label: Optional[str] = None
        self.engine: str = "?"
        self.n_pus: int = 0
        self.final_cycle: int = 0
        self.result = None

    # ------------------------------------------------------------- plumbing

    def attach(self, machine) -> None:
        """Bind to ``machine`` (called from the machine constructor)."""
        self.label = machine.label
        self.engine = machine.config.engine
        self.n_pus = machine.config.n_pus

    # ----------------------------------------------------------- lifecycle

    def on_assign(self, seq: int, pu: int, cycle: int) -> None:
        self.events.append(("assign", seq, pu, cycle))

    def on_wrong_assign(self, pu: int, cycle: int) -> None:
        self.events.append(("wrong_assign", pu, cycle))

    def on_task_mispredict(self, seq: int, cycle: int) -> None:
        self.events.append(("task_mispredict", seq, cycle))

    def on_branch_mispredict(
        self, seq: int, idx: int, cycle: int, pu: int
    ) -> None:
        self.events.append(("branch_mispredict", seq, idx, pu, cycle))

    def on_arb_violation(self, seq: int, cycle: int,
                         injected: bool = False) -> None:
        self.events.append(("arb_violation", seq, cycle, injected))

    def on_squash(self, seq: int, pu: int, cycle: int, penalty: int,
                  memory: bool, first_issue: int) -> None:
        cause = "memory" if memory else "control"
        self.events.append(
            ("squash", seq, pu, cycle, penalty, cause, first_issue)
        )

    def on_wrong_squash(self, pu: int, cycle: int, penalty: int) -> None:
        self.events.append(("wrong_squash", pu, cycle, penalty))

    def on_commit_start(self, seq: int, pu: int, cycle: int) -> None:
        self.events.append(("commit", seq, pu, cycle))

    def on_retire(self, seq: int, pu: int, cycle: int,
                  first_issue: int, done: int) -> None:
        self.events.append(("retire", seq, pu, cycle, first_issue, done))

    # -------------------------------------------------------------- finish

    def on_finish(self, machine, result) -> None:
        self.final_cycle = result.cycles
        self.result = result

    # ------------------------------------------------------------ analysis

    def counts(self) -> Dict[str, int]:
        """Events tallied by kind."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event[0]] = out.get(event[0], 0) + 1
        return out
