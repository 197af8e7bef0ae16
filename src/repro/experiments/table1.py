"""Table 1: dynamic task size, misprediction rates, window span.

Per benchmark the paper reports, for basic block / control flow /
data dependence tasks on 8 PUs:

* ``#dyn inst`` — mean dynamic instructions per task,
* ``#ct inst`` — mean dynamic control transfer instructions per task
  (multi-block tasks only),
* ``task pred`` — task misprediction percentage,
* ``br pred`` — the per-branch-equivalent misprediction percentage,
* ``win span`` — the window span (basic block and data dependence
  columns only).

Expected shape (Sections 4.3.2–4.3.4): heuristic tasks are several
times larger than basic block tasks; loop-level benchmarks keep the
best task prediction; window spans of data dependence tasks far exceed
basic block spans, with fp spans well above integer spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.compiler import HeuristicLevel
from repro.experiments.runner import RunRecord, cell_config
from repro.harness.spec import RunSpec
from repro.workloads import all_benchmarks

TABLE1_LEVELS: Tuple[HeuristicLevel, ...] = (
    HeuristicLevel.BASIC_BLOCK,
    HeuristicLevel.CONTROL_FLOW,
    HeuristicLevel.DATA_DEPENDENCE,
)


@dataclass
class Table1Result:
    """Records per (benchmark, level), measured on the 8-PU machine."""

    records: Dict[Tuple[str, HeuristicLevel], RunRecord] = field(
        default_factory=dict
    )

    def record(self, benchmark: str, level: HeuristicLevel) -> RunRecord:
        """One measured cell group."""
        return self.records[(benchmark, level)]


def table1_specs(
    benchmarks: Sequence[str] = (),
    n_pus: int = 8,
    scale: float = 1.0,
) -> Tuple[List[Tuple[str, HeuristicLevel]], List[RunSpec]]:
    """The grid's (keys, specs), in the canonical submission order."""
    names = list(benchmarks) or [bm.name for bm in all_benchmarks()]
    sim = cell_config(n_pus=n_pus)
    keys: List[Tuple[str, HeuristicLevel]] = []
    specs: List[RunSpec] = []
    for name in names:
        for level in TABLE1_LEVELS:
            keys.append((name, level))
            specs.append(RunSpec(
                benchmark=name, level=level, scale=scale, sim=sim,
            ))
    return keys, specs


def format_table1(result: Table1Result) -> str:
    """Render the paper-style table."""
    lines: List[str] = []
    lines.append(
        f"{'':12}| {'Basic Block Tasks':^28} | {'Control Flow Tasks':^37} "
        f"| {'Data Dependence Tasks':^47}"
    )
    lines.append(
        f"{'benchmark':<12}| {'#dyn':>6} {'task%':>6} {'win':>7} "
        f"| {'#ct':>5} {'#dyn':>6} {'task%':>6} {'br%':>6} "
        f"| {'#ct':>5} {'#dyn':>6} {'task%':>6} {'br%':>6} {'win':>7}"
    )
    names = sorted({key[0] for key in result.records})
    for name in names:
        bb = result.record(name, HeuristicLevel.BASIC_BLOCK)
        cf = result.record(name, HeuristicLevel.CONTROL_FLOW)
        dd = result.record(name, HeuristicLevel.DATA_DEPENDENCE)
        lines.append(
            f"{name:<12}"
            f"| {bb.mean_task_size:>6.1f} {bb.task_misprediction_percent:>6.1f} "
            f"{bb.window_span_formula:>7.0f} "
            f"| {cf.mean_control_transfers:>5.1f} {cf.mean_task_size:>6.1f} "
            f"{cf.task_misprediction_percent:>6.1f} "
            f"{cf.branch_normalized_misprediction_percent:>6.1f} "
            f"| {dd.mean_control_transfers:>5.1f} {dd.mean_task_size:>6.1f} "
            f"{dd.task_misprediction_percent:>6.1f} "
            f"{dd.branch_normalized_misprediction_percent:>6.1f} "
            f"{dd.window_span_formula:>7.0f}"
        )
    return "\n".join(lines)
