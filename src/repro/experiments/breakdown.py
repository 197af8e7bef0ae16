"""Figure 2 time line: where the PU-cycles go.

The paper's Figure 2 is a schematic of the execution-time categories;
this harness measures them: for each benchmark and heuristic level it
reports the fraction of PU-cycles in each
:class:`~repro.sim.breakdown.StallReason` category plus the control /
memory misspeculation penalties.

Expected shape: moving from basic block to heuristic tasks shifts
cycles out of task overhead and idle time; the data dependence
heuristic reduces inter-task communication stalls; misspeculation
penalties grow with task size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler import HeuristicLevel
from repro.experiments.runner import RunRecord
from repro.harness.cache import ArtifactCache
from repro.harness.ledger import RunLedger
from repro.harness.scheduler import run_specs
from repro.harness.spec import RunSpec
from repro.sim import StallReason

BREAKDOWN_LEVELS: Tuple[HeuristicLevel, ...] = (
    HeuristicLevel.BASIC_BLOCK,
    HeuristicLevel.CONTROL_FLOW,
    HeuristicLevel.DATA_DEPENDENCE,
    HeuristicLevel.TASK_SIZE,
)


@dataclass
class BreakdownResult:
    """Per (benchmark, level): the run record with its cycle accounting."""

    records: Dict[Tuple[str, HeuristicLevel], RunRecord] = field(
        default_factory=dict
    )

    def fractions(
        self, benchmark: str, level: HeuristicLevel
    ) -> Dict[str, float]:
        """Category -> fraction of all attributed PU-cycles."""
        record = self.records[(benchmark, level)]
        flat = record.breakdown.as_dict()
        total = sum(flat.values())
        if total == 0:
            return {key: 0.0 for key in flat}
        return {key: value / total for key, value in flat.items()}


def breakdown_specs(
    benchmarks: Sequence[str],
    n_pus: int = 4,
    levels: Sequence[HeuristicLevel] = BREAKDOWN_LEVELS,
    scale: float = 1.0,
) -> Tuple[List[Tuple[str, HeuristicLevel]], List[RunSpec]]:
    """The grid's (keys, specs), in the canonical submission order."""
    keys: List[Tuple[str, HeuristicLevel]] = []
    specs: List[RunSpec] = []
    for name in benchmarks:
        for level in levels:
            keys.append((name, level))
            specs.append(RunSpec(
                benchmark=name, level=level, n_pus=n_pus, scale=scale,
            ))
    return keys, specs


def run_breakdown(
    benchmarks: Sequence[str],
    n_pus: int = 4,
    levels: Sequence[HeuristicLevel] = BREAKDOWN_LEVELS,
    scale: float = 1.0,
    jobs: int = 1,
    cache: Optional[ArtifactCache] = None,
    ledger: Optional[RunLedger] = None,
    resume: bool = False,
) -> BreakdownResult:
    """Measure the cycle breakdown for the selected benchmarks."""
    keys, specs = breakdown_specs(benchmarks, n_pus, levels, scale)
    records = run_specs(specs, jobs=jobs, cache=cache, ledger=ledger,
                        resume=resume)
    result = BreakdownResult()
    result.records = dict(zip(keys, records))
    return result


_COLUMNS = [reason.value for reason in StallReason] + [
    "control_misspeculation",
    "memory_misspeculation",
]


def format_breakdown(result: BreakdownResult) -> str:
    """Render per-category percentage rows."""
    lines: List[str] = []
    short = {
        "useful": "useful",
        "task_start_overhead": "start",
        "task_end_overhead": "end",
        "intra_task_dependence": "intra",
        "inter_task_communication": "inter",
        "memory_stall": "mem",
        "memory_sync_wait": "sync",
        "fetch_stall": "fetch",
        "load_imbalance": "imbal",
        "idle": "idle",
        "control_misspeculation": "ctl-sq",
        "memory_misspeculation": "mem-sq",
    }
    header = f"{'benchmark/level':<28}" + "".join(
        f"{short[c]:>7}" for c in _COLUMNS
    )
    lines.append(header)
    for (name, level), _rec in sorted(
        result.records.items(), key=lambda kv: (kv[0][0], kv[0][1].rank)
    ):
        fractions = result.fractions(name, level)
        row = f"{name + '/' + level.value:<28}" + "".join(
            f"{100 * fractions.get(c, 0.0):>6.1f}%" for c in _COLUMNS
        )
        lines.append(row)
    return "\n".join(lines)
