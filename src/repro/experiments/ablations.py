"""Ablations of the design choices DESIGN.md calls out.

* :func:`sweep_max_targets` — the hardware-target width N
  (Section 2.4.2: tasks with more successors than the tables track
  lose prediction accuracy).
* :func:`sweep_thresholds` — CALL_THRESH / LOOP_THRESH (Section 3.2
  picked 30 to keep task overhead near 6 %).
* :func:`sweep_sync_table` — the memory dependence synchronisation
  table (Section 3.4 relies on it to avoid excessive squashing).
* :func:`sweep_forward_policy` — register communication scheduling
  (Section 3.3 / [18]): compiled release points vs oracle-eager vs
  task-end forwarding.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler import HeuristicLevel, SelectionConfig
from repro.experiments.runner import RunRecord
from repro.harness.cache import ArtifactCache
from repro.harness.ledger import RunLedger
from repro.harness.scheduler import run_specs
from repro.harness.spec import RunSpec
from repro.sim import SimConfig
from repro.sim.config import ForwardPolicy


def _sweep(
    keys: List,
    specs: List[RunSpec],
    jobs: int,
    cache: Optional[ArtifactCache],
    ledger: Optional[RunLedger],
    resume: bool = False,
) -> Dict:
    """Submit a sweep grid through the harness and key its records."""
    return dict(zip(keys, run_specs(specs, jobs=jobs, cache=cache,
                                    ledger=ledger, resume=resume)))


def max_targets_specs(
    benchmarks: Sequence[str],
    values: Sequence[int] = (1, 2, 4, 8),
    n_pus: int = 4,
    scale: float = 1.0,
) -> Tuple[List, List[RunSpec]]:
    """(keys, specs) of the successor-limit sweep."""
    keys, specs = [], []
    for name in benchmarks:
        for n in values:
            keys.append((name, n))
            specs.append(RunSpec(
                benchmark=name,
                level=HeuristicLevel.DATA_DEPENDENCE,
                n_pus=n_pus,
                scale=scale,
                selection=SelectionConfig(
                    level=HeuristicLevel.DATA_DEPENDENCE, max_targets=n
                ),
            ))
    return keys, specs


def sweep_max_targets(
    benchmarks: Sequence[str],
    values: Sequence[int] = (1, 2, 4, 8),
    n_pus: int = 4,
    scale: float = 1.0,
    jobs: int = 1,
    cache: Optional[ArtifactCache] = None,
    ledger: Optional[RunLedger] = None,
    resume: bool = False,
) -> Dict[Tuple[str, int], RunRecord]:
    """IPC as a function of the successor limit N."""
    keys, specs = max_targets_specs(benchmarks, values, n_pus, scale)
    return _sweep(keys, specs, jobs, cache, ledger, resume)


def sweep_thresholds(
    benchmarks: Sequence[str],
    values: Sequence[int] = (10, 30, 100),
    n_pus: int = 4,
    scale: float = 1.0,
    jobs: int = 1,
    cache: Optional[ArtifactCache] = None,
    ledger: Optional[RunLedger] = None,
    resume: bool = False,
) -> Dict[Tuple[str, int], RunRecord]:
    """IPC as CALL_THRESH = LOOP_THRESH varies (task size heuristic)."""
    keys, specs = thresholds_specs(benchmarks, values, n_pus, scale)
    return _sweep(keys, specs, jobs, cache, ledger, resume)


def thresholds_specs(
    benchmarks: Sequence[str],
    values: Sequence[int] = (10, 30, 100),
    n_pus: int = 4,
    scale: float = 1.0,
) -> Tuple[List, List[RunSpec]]:
    """(keys, specs) of the CALL_THRESH/LOOP_THRESH sweep."""
    keys, specs = [], []
    for name in benchmarks:
        for thresh in values:
            keys.append((name, thresh))
            specs.append(RunSpec(
                benchmark=name,
                level=HeuristicLevel.TASK_SIZE,
                n_pus=n_pus,
                scale=scale,
                selection=SelectionConfig(
                    level=HeuristicLevel.TASK_SIZE,
                    call_thresh=thresh,
                    loop_thresh=thresh,
                ),
            ))
    return keys, specs


def sweep_sync_table(
    benchmarks: Sequence[str],
    n_pus: int = 4,
    scale: float = 1.0,
    jobs: int = 1,
    cache: Optional[ArtifactCache] = None,
    ledger: Optional[RunLedger] = None,
    resume: bool = False,
) -> Dict[Tuple[str, bool], RunRecord]:
    """Memory squashes and IPC with and without the sync table."""
    keys, specs = sync_table_specs(benchmarks, n_pus, scale)
    return _sweep(keys, specs, jobs, cache, ledger, resume)


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
                n_pus=n_pus,
                scale=scale,
                sim=SimConfig(sync_table_size=256 if enabled else 0),
            ))
    return keys, specs


def sweep_arb_size(
    benchmarks: Sequence[str],
    values: Sequence[int] = (4, 32, 0),
    n_pus: int = 4,
    scale: float = 1.0,
    jobs: int = 1,
    cache: Optional[ArtifactCache] = None,
    ledger: Optional[RunLedger] = None,
    resume: bool = False,
) -> Dict[Tuple[str, int], RunRecord]:
    """IPC as ARB capacity varies (0 = unbounded).

    Section 2.4.1: large tasks may overflow the ARB and stall until
    speculation resolves; this is one of the paper's arguments for
    bounding task size.
    """
    keys, specs = arb_size_specs(benchmarks, values, n_pus, scale)
    return _sweep(keys, specs, jobs, cache, ledger, resume)


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
                n_pus=n_pus,
                scale=scale,
                sim=SimConfig(arb_entries_per_pu=entries),
            ))
    return keys, specs


def sweep_forward_policy(
    benchmarks: Sequence[str],
    n_pus: int = 4,
    scale: float = 1.0,
    jobs: int = 1,
    cache: Optional[ArtifactCache] = None,
    ledger: Optional[RunLedger] = None,
    resume: bool = False,
) -> Dict[Tuple[str, ForwardPolicy], RunRecord]:
    """IPC under schedule / eager / lazy register forwarding."""
    keys, specs = forward_policy_specs(benchmarks, n_pus, scale)
    return _sweep(keys, specs, jobs, cache, ledger, resume)


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
                n_pus=n_pus,
                scale=scale,
                sim=SimConfig(forward_policy=policy),
            ))
    return keys, specs


def sweep_profile_input(
    benchmarks: Sequence[str],
    n_pus: int = 4,
    scale: float = 1.0,
    jobs: int = 1,
    cache: Optional[ArtifactCache] = None,
    ledger: Optional[RunLedger] = None,
    resume: bool = False,
) -> Dict[Tuple[str, str], RunRecord]:
    """Profile-input sensitivity: select tasks on "train" data, run
    "ref" data, vs the paper's same-input profiling.

    The heuristics only consume coarse frequencies (block counts,
    dependence ranks), so a representative train input should produce
    nearly the same partition and IPC.
    """
    keys, specs = profile_input_specs(benchmarks, n_pus, scale)
    return _sweep(keys, specs, jobs, cache, ledger, resume)


def profile_input_specs(
    benchmarks: Sequence[str],
    n_pus: int = 4,
    scale: float = 1.0,
) -> Tuple[List, List[RunSpec]]:
    """(keys, specs) of the profile-input-sensitivity sweep."""
    keys, specs = [], []
    for name in benchmarks:
        keys.append((name, "same-input"))
        specs.append(RunSpec(
            benchmark=name,
            level=HeuristicLevel.DATA_DEPENDENCE,
            n_pus=n_pus,
            scale=scale,
        ))
        keys.append((name, "train-profiled"))
        specs.append(RunSpec(
            benchmark=name,
            level=HeuristicLevel.DATA_DEPENDENCE,
            n_pus=n_pus,
            scale=scale,
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
