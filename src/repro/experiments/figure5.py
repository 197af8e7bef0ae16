"""Figure 5: impact of the compiler heuristics on SPEC95 IPC.

The paper's figure shows, per benchmark, IPC bars for basic block /
control flow / data dependence / task size tasks, for out-of-order and
in-order PUs, at 4 ("a") and 8 ("b") PUs.  :func:`run_figure5`
regenerates the full grid; :func:`format_figure5` prints it with the
paper's headline statistic — percentage improvement over basic block
tasks, summarised per suite.

Expected shape (Section 4.3.1): every heuristic level beats basic
block tasks; fp gains exceed integer gains; 8 PUs gain more than 4;
in-order PUs gain relatively more from the heuristics than
out-of-order PUs; the data dependence heuristic adds a modest delta
over control flow.
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
    zipping the records back onto ``keys`` reconstructs exactly the
    grid ``run_figure5`` returns.
    """
    from repro.sim import SimConfig

    sim = None if engine == "fast" else SimConfig(engine=engine)
    names = list(benchmarks) or [bm.name for bm in all_benchmarks()]
    keys: List[Tuple[str, HeuristicLevel, ConfigKey]] = []
    specs: List[RunSpec] = []
    for name in names:
        for level in levels:
            for n_pus, ooo in configs:
                keys.append((name, level, (n_pus, ooo)))
                specs.append(RunSpec(
                    benchmark=name, level=level, n_pus=n_pus,
                    out_of_order=ooo, scale=scale, sim=sim,
                ))
    return keys, specs


def run_figure5(
    benchmarks: Sequence[str] = (),
    configs: Sequence[ConfigKey] = DEFAULT_CONFIGS,
    levels: Sequence[HeuristicLevel] = LEVELS,
    scale: float = 1.0,
    jobs: int = 1,
    cache: Optional[ArtifactCache] = None,
    ledger: Optional[RunLedger] = None,
    resume: bool = False,
    engine: str = "fast",
) -> Figure5Result:
    """Run the Figure 5 grid (all benchmarks by default).

    The grid is submitted through the harness: ``jobs`` workers
    (``0``/``None`` = one per CPU), with compilation shared per
    (benchmark, level) and optional persistent caching.  ``engine``
    selects the simulation core (``"fast"`` or ``"reference"``); both
    are bit-identical, so this only affects wall-clock time — and the
    cache key, which covers every ``SimConfig`` field.
    """
    keys, specs = figure5_specs(benchmarks, configs, levels, scale, engine)
    records = run_specs(specs, jobs=jobs, cache=cache, ledger=ledger,
                        resume=resume)
    result = Figure5Result()
    result.records = dict(zip(keys, records))
    return result


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
