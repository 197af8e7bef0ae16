"""Experiment harnesses regenerating the paper's tables and figures.

* :mod:`~repro.experiments.runner` — one canonical pipeline run
  (build → select tasks → trace → task stream → simulate) with
  caching, so PU-count / issue-model sweeps share compilation work.
* :mod:`~repro.experiments.figure5` — Figure 5: IPC of the heuristic
  progression on 4 and 8 PUs, out-of-order and in-order.
* :mod:`~repro.experiments.table1` — Table 1: task size, control
  transfers per task, task/branch misprediction, window span.
* :mod:`~repro.experiments.breakdown` — Figure 2 cycle accounting.
* :mod:`~repro.experiments.ablations` — N-target / threshold /
  sync-table / forwarding-policy sweeps (DESIGN.md §4).
* :mod:`~repro.experiments.scaling` — the manycore scaling study:
  machine preset x heuristic level x predictor grids with per-PU
  utilization telemetry (DESIGN.md §14).

All grid drivers accept ``jobs`` / ``cache`` / ``ledger`` and submit
their cells through :mod:`repro.harness` — a process-pool scheduler
with a persistent artifact cache — instead of looping over
:func:`run_benchmark` themselves.  ``jobs=1`` (the default) is the
exact historical serial path.
"""

from repro.experiments.runner import (
    Compiled,
    RunRecord,
    clear_cache,
    compile_benchmark,
    compile_cache_key,
    run_benchmark,
)

__all__ = [
    "Compiled",
    "RunRecord",
    "clear_cache",
    "compile_benchmark",
    "compile_cache_key",
    "run_benchmark",
]
