"""Ablations of the design choices DESIGN.md calls out.

Each ``*_specs`` builder returns one sweep's ``(keys, specs)``; run it
with :func:`repro.harness.run_keyed` and print the keyed records with
:func:`format_sweep`.

* :func:`max_targets_specs` — the hardware-target width N
  (Section 2.4.2: tasks with more successors than the tables track
  lose prediction accuracy).
* :func:`thresholds_specs` — CALL_THRESH / LOOP_THRESH (Section 3.2
  picked 30 to keep task overhead near 6 %).
* :func:`sync_table_specs` — the memory dependence synchronisation
  table (Section 3.4 relies on it to avoid excessive squashing).
* :func:`arb_size_specs` — ARB capacity, 0 = unbounded (Section
  2.4.1: large tasks may overflow the ARB and stall until speculation
  resolves, one of the paper's arguments for bounding task size).
* :func:`forward_policy_specs` — register communication scheduling
  (Section 3.3 / [18]): compiled release points vs oracle-eager vs
  task-end forwarding.
* :func:`profile_input_specs` — tasks selected on "train" data and
  run on "ref" data, against the paper's same-input profiling.  The
  heuristics only consume coarse frequencies (block counts,
  dependence ranks), so a representative train input should produce
  nearly the same partition and IPC.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.compiler import HeuristicLevel, SelectionConfig
from repro.experiments.runner import cell_config
from repro.harness.spec import RunSpec
from repro.sim import SimConfig
from repro.sim.config import ForwardPolicy


def max_targets_specs(
    benchmarks: Sequence[str],
    values: Sequence[int] = (1, 2, 4, 8),
    n_pus: int = 4,
    scale: float = 1.0,
) -> Tuple[List, List[RunSpec]]:
    """(keys, specs) of the successor-limit sweep."""
    sim = cell_config(n_pus=n_pus)
    keys, specs = [], []
    for name in benchmarks:
        for n in values:
            keys.append((name, n))
            specs.append(RunSpec(
                benchmark=name,
                level=HeuristicLevel.DATA_DEPENDENCE,
                scale=scale,
                selection=SelectionConfig(
                    level=HeuristicLevel.DATA_DEPENDENCE, max_targets=n
                ),
                sim=sim,
            ))
    return keys, specs


def thresholds_specs(
    benchmarks: Sequence[str],
    values: Sequence[int] = (10, 30, 100),
    n_pus: int = 4,
    scale: float = 1.0,
) -> Tuple[List, List[RunSpec]]:
    """(keys, specs) of the CALL_THRESH/LOOP_THRESH sweep."""
    sim = cell_config(n_pus=n_pus)
    keys, specs = [], []
    for name in benchmarks:
        for thresh in values:
            keys.append((name, thresh))
            specs.append(RunSpec(
                benchmark=name,
                level=HeuristicLevel.TASK_SIZE,
                scale=scale,
                selection=SelectionConfig(
                    level=HeuristicLevel.TASK_SIZE,
                    call_thresh=thresh,
                    loop_thresh=thresh,
                ),
                sim=sim,
            ))
    return keys, specs


def sync_table_specs(
    benchmarks: Sequence[str],
    n_pus: int = 4,
    scale: float = 1.0,
) -> Tuple[List, List[RunSpec]]:
    """(keys, specs) of the sync-table on/off sweep."""
    keys, specs = [], []
    for name in benchmarks:
        for enabled in (True, False):
            keys.append((name, enabled))
            specs.append(RunSpec(
                benchmark=name,
                level=HeuristicLevel.DATA_DEPENDENCE,
                scale=scale,
                sim=cell_config(
                    SimConfig(sync_table_size=256 if enabled else 0), n_pus
                ),
            ))
    return keys, specs


def arb_size_specs(
    benchmarks: Sequence[str],
    values: Sequence[int] = (4, 32, 0),
    n_pus: int = 4,
    scale: float = 1.0,
) -> Tuple[List, List[RunSpec]]:
    """(keys, specs) of the ARB-capacity sweep."""
    keys, specs = [], []
    for name in benchmarks:
        for entries in values:
            keys.append((name, entries))
            specs.append(RunSpec(
                benchmark=name,
                level=HeuristicLevel.TASK_SIZE,
                scale=scale,
                sim=cell_config(SimConfig(arb_entries_per_pu=entries), n_pus),
            ))
    return keys, specs


def forward_policy_specs(
    benchmarks: Sequence[str],
    n_pus: int = 4,
    scale: float = 1.0,
) -> Tuple[List, List[RunSpec]]:
    """(keys, specs) of the register-forwarding-policy sweep."""
    keys, specs = [], []
    for name in benchmarks:
        for policy in ForwardPolicy:
            keys.append((name, policy))
            specs.append(RunSpec(
                benchmark=name,
                level=HeuristicLevel.DATA_DEPENDENCE,
                scale=scale,
                sim=cell_config(SimConfig(forward_policy=policy), n_pus),
            ))
    return keys, specs


def profile_input_specs(
    benchmarks: Sequence[str],
    n_pus: int = 4,
    scale: float = 1.0,
) -> Tuple[List, List[RunSpec]]:
    """(keys, specs) of the profile-input-sensitivity sweep."""
    sim = cell_config(n_pus=n_pus)
    keys, specs = [], []
    for name in benchmarks:
        keys.append((name, "same-input"))
        specs.append(RunSpec(
            benchmark=name,
            level=HeuristicLevel.DATA_DEPENDENCE,
            scale=scale,
            sim=sim,
        ))
        keys.append((name, "train-profiled"))
        specs.append(RunSpec(
            benchmark=name,
            level=HeuristicLevel.DATA_DEPENDENCE,
            scale=scale,
            sim=sim,
            profile_input="train",
        ))
    return keys, specs


def format_sweep(records: Dict, label: str) -> str:
    """Generic one-line-per-cell report for any sweep result."""
    lines: List[str] = [f"== ablation: {label} =="]
    for key, rec in sorted(records.items(), key=lambda kv: str(kv[0])):
        name, variant = key
        lines.append(
            f"{name:<12} {str(variant):<22} ipc={rec.ipc:5.2f} "
            f"taskpred={rec.task_prediction_accuracy:6.3f} "
            f"memsq={rec.memory_squashes:4d} ctlsq={rec.control_squashes:4d}"
        )
    return "\n".join(lines)
