"""Task-lifecycle trace collection for one machine run.

A :class:`TraceCollector` is attached to a machine the same way the
reliability monitor is — as a duck-typed constructor argument
(``MultiscalarMachine(..., tracer=collector)``): the simulator never
imports this package, and a machine without a tracer pays nothing.
A tracer is any object with ``attach(machine)`` and
``on_finish(machine, result)``; the machine calls nothing else on it.

With a tracer attached, the machine keeps one lifecycle log,
``machine.events``: an ``array('q')`` of fixed-width records (the
kind, then its fields; ``repro.sim.native.EV_*``).  ``_tick`` appends
each record as the event happens; a kernel run writes the same
records in C and hands its log over after the run, so both engines
produce word-for-word identical logs on the same cell.
``tests/test_telemetry.py`` sweeps a grid to enforce this — the log
is a finer-grained correctness probe than the aggregate ``SimResult``.

:meth:`TraceCollector.on_finish` decodes the log into ``events``, one
plain tuple per record (first element is the kind):

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

A record holds a tuple's fields in the same order, as int64 words:
``injected`` is 0 or 1 (a fault plan's spurious violation) and
``cause`` is 1 for ``"memory"``, 0 for ``"control"``.
``first_issue`` is the cycle the task's first instruction issued
(-1 if it never issued).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.sim.native import (
    EV_ARB_VIOLATION, EV_ASSIGN, EV_BRANCH_MISPREDICT, EV_COMMIT, EV_RETIRE,
    EV_SQUASH, EV_TASK_MISPREDICT, EV_WORDS, EV_WRONG_ASSIGN, EV_WRONG_SQUASH,
)

#: record kind -> (tuple kind, number of fields the record holds)
_KINDS = {
    EV_ASSIGN: ("assign", 3),
    EV_WRONG_ASSIGN: ("wrong_assign", 2),
    EV_TASK_MISPREDICT: ("task_mispredict", 2),
    EV_BRANCH_MISPREDICT: ("branch_mispredict", 4),
    EV_ARB_VIOLATION: ("arb_violation", 3),
    EV_SQUASH: ("squash", 6),
    EV_WRONG_SQUASH: ("wrong_squash", 3),
    EV_COMMIT: ("commit", 3),
    EV_RETIRE: ("retire", 5),
}


class TraceCollector:
    """Duck-typed machine tracer: the run's lifecycle events as tuples."""

    def __init__(self) -> None:
        #: the event stream (engine-independent, order matters)
        self.events: List[Tuple] = []
        self.label: Optional[str] = None
        self.engine: str = "?"
        self.n_pus: int = 0
        self.final_cycle: int = 0

    def attach(self, machine) -> None:
        """Bind to ``machine`` (called from the machine constructor)."""
        self.label = machine.label
        self.engine = machine.config.engine
        self.n_pus = machine.config.n_pus

    def on_finish(self, machine, result) -> None:
        """Decode the finished run's log (called once, after the run)."""
        log = machine.events
        events: List[Tuple] = []
        for k in range(0, len(log), EV_WORDS):
            kind = log[k]
            name, width = _KINDS[kind]
            fields = log[k + 1:k + 1 + width].tolist()
            if kind == EV_SQUASH:
                fields[4] = "memory" if fields[4] else "control"
            elif kind == EV_ARB_VIOLATION:
                fields[2] = bool(fields[2])
            events.append((name, *fields))
        self.events = events
        self.final_cycle = result.cycles

    def counts(self) -> Dict[str, int]:
        """Events tallied by kind."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event[0]] = out.get(event[0], 0) + 1
        return out
