"""Figure 5: impact of the compiler heuristics on SPEC95 IPC.

The paper's figure shows, per benchmark, IPC bars for basic block /
control flow / data dependence / task size tasks, for out-of-order and
in-order PUs, at 4 ("a") and 8 ("b") PUs.  :func:`figure5_specs`
builds the full grid (run it with :func:`repro.harness.run_keyed`);
:func:`format_figure5` prints it with the paper's headline statistic
— percentage improvement over basic block tasks, summarised per
suite.

Expected shape (Section 4.3.1): every heuristic level beats basic
block tasks; fp gains exceed integer gains; 8 PUs gain more than 4;
in-order PUs gain relatively more from the heuristics than
out-of-order PUs; the data dependence heuristic adds a modest delta
over control flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.compiler import HeuristicLevel
from repro.experiments.runner import RunRecord, cell_config
from repro.harness.spec import RunSpec
from repro.metrics import geometric_mean, improvement_percent
from repro.workloads import all_benchmarks

LEVELS: Tuple[HeuristicLevel, ...] = (
    HeuristicLevel.BASIC_BLOCK,
    HeuristicLevel.CONTROL_FLOW,
    HeuristicLevel.DATA_DEPENDENCE,
    HeuristicLevel.TASK_SIZE,
)

ConfigKey = Tuple[int, bool]
"""(n_pus, out_of_order)."""

DEFAULT_CONFIGS: Tuple[ConfigKey, ...] = (
    (4, True),
    (8, True),
    (4, False),
    (8, False),
)


@dataclass
class Figure5Result:
    """All runs of the Figure 5 grid, indexed for reporting."""

    records: Dict[Tuple[str, HeuristicLevel, ConfigKey], RunRecord] = field(
        default_factory=dict
    )

    def ipc(self, benchmark: str, level: HeuristicLevel, config: ConfigKey) -> float:
        """IPC of one cell."""
        return self.records[(benchmark, level, config)].ipc

    def improvement(
        self, benchmark: str, level: HeuristicLevel, config: ConfigKey
    ) -> float:
        """Percent IPC improvement over basic block tasks."""
        base = self.ipc(benchmark, HeuristicLevel.BASIC_BLOCK, config)
        return improvement_percent(self.ipc(benchmark, level, config), base)

    def suite_improvement_range(
        self, suite: str, level: HeuristicLevel, config: ConfigKey
    ) -> Tuple[float, float]:
        """(min, max) improvement over basic block across a suite."""
        gains = [
            self.improvement(bm.name, level, config)
            for bm in all_benchmarks()
            if bm.suite == suite
            and (bm.name, level, config) in self.records
            and (bm.name, HeuristicLevel.BASIC_BLOCK, config) in self.records
        ]
        if not gains:
            raise KeyError(f"no {suite} benchmarks in this grid")
        return min(gains), max(gains)

    def suite_geomean_ratio(
        self, suite: str, level: HeuristicLevel, config: ConfigKey
    ) -> float:
        """Geometric-mean IPC ratio over basic block across a suite."""
        ratios = [
            self.ipc(bm.name, level, config)
            / self.ipc(bm.name, HeuristicLevel.BASIC_BLOCK, config)
            for bm in all_benchmarks()
            if bm.suite == suite
            and (bm.name, level, config) in self.records
            and (bm.name, HeuristicLevel.BASIC_BLOCK, config) in self.records
        ]
        return geometric_mean(ratios)


def figure5_specs(
    benchmarks: Sequence[str] = (),
    configs: Sequence[ConfigKey] = DEFAULT_CONFIGS,
    levels: Sequence[HeuristicLevel] = LEVELS,
    scale: float = 1.0,
    engine: str = "fast",
) -> Tuple[List[Tuple[str, HeuristicLevel, ConfigKey]], List[RunSpec]]:
    """The grid's (keys, specs), in the canonical submission order.

    The specs here *are* the grid: executing them in any order and
    zipping the records back onto ``keys``
    (:func:`repro.harness.run_keyed` does both) gives
    :attr:`Figure5Result.records`.  ``engine`` selects the
    simulation core (``"fast"`` or ``"reference"``); both are
    bit-identical, so it changes only wall-clock time and the cache
    key, which covers every ``SimConfig`` field.
    """
    from repro.sim import SimConfig

    base = SimConfig(engine=engine)
    machines = {config: cell_config(base, *config) for config in configs}
    names = list(benchmarks) or [bm.name for bm in all_benchmarks()]
    keys: List[Tuple[str, HeuristicLevel, ConfigKey]] = []
    specs: List[RunSpec] = []
    for name in names:
        for level in levels:
            for config in configs:
                keys.append((name, level, config))
                specs.append(RunSpec(
                    benchmark=name, level=level, scale=scale,
                    sim=machines[config],
                ))
    return keys, specs


def format_figure5(result: Figure5Result, configs: Sequence[ConfigKey] = DEFAULT_CONFIGS) -> str:
    """Render the grid as the paper-style text report."""
    lines: List[str] = []
    names = sorted({key[0] for key in result.records})
    suites = {bm.name: bm.suite for bm in all_benchmarks()}
    for n_pus, ooo in configs:
        mode = "out-of-order" if ooo else "in-order"
        lines.append(f"== Figure 5 — {n_pus} PUs, {mode} PUs ==")
        header = f"{'benchmark':<12}" + "".join(
            f"{lvl.value:>18}" for lvl in LEVELS
        )
        lines.append(header)
        for name in names:
            if (name, HeuristicLevel.BASIC_BLOCK, (n_pus, ooo)) not in result.records:
                continue
            row = [f"{name:<12}"]
            for level in LEVELS:
                rec = result.records.get((name, level, (n_pus, ooo)))
                if rec is None:
                    row.append(f"{'-':>18}")
                    continue
                gain = result.improvement(name, level, (n_pus, ooo))
                row.append(f"{rec.ipc:>9.2f} ({gain:+5.1f}%)".rjust(18))
            lines.append("".join(row))
        for suite in ("int", "fp"):
            in_grid = [n for n in names if suites.get(n) == suite]
            if not in_grid:
                continue
            for level in LEVELS[1:]:
                try:
                    lo, hi = result.suite_improvement_range(
                        suite, level, (n_pus, ooo)
                    )
                except KeyError:
                    continue
                lines.append(
                    f"  {suite} suite, {level.value}: improvement over "
                    f"basic block {lo:+.1f}% .. {hi:+.1f}%"
                )
        lines.append("")
    return "\n".join(lines)
