"""Reliability subsystem: prove the machine and harness recover.

Three pillars (see DESIGN.md §8):

* :mod:`~repro.reliability.oracle` — differential oracle comparing
  sequential execution against a replay of the machine's commit log;
* :mod:`~repro.reliability.monitors` — always-on invariant assertions
  inside the cycle loop (in-order retire, complete squashes, penalty
  reconciliation, no stale committed loads);
* :mod:`~repro.reliability.faults` — seeded injection of forced
  mispredictions and spurious memory violations, proving the
  squash-and-recover paths preserve architectural state.

:func:`~repro.reliability.verify.check_run` is the one cell check
built from them: it also runs the cell unmonitored, on the native
loop, and compares the two results.  Entry points:
:func:`verify_workload` / :func:`verify_grid` (``repro verify`` on
the command line) and the fuzz campaign (:mod:`repro.synth`).
"""

from repro.reliability.faults import FaultPlan, InjectedFault
from repro.reliability.monitors import InvariantMonitor, InvariantViolation
from repro.reliability.oracle import (
    ArchState,
    check_commit_log,
    compare_states,
    compare_traces,
    replay_commits,
    sequential_reference,
)
from repro.reliability.verify import (
    VerifyReport,
    check_run,
    verify_grid,
    verify_workload,
)

__all__ = [
    "ArchState",
    "FaultPlan",
    "InjectedFault",
    "InvariantMonitor",
    "InvariantViolation",
    "VerifyReport",
    "check_commit_log",
    "check_run",
    "compare_states",
    "compare_traces",
    "replay_commits",
    "sequential_reference",
    "verify_grid",
    "verify_workload",
]
