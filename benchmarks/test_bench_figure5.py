"""Figure 5 regeneration benchmark (experiment id: fig5).

Reproduces the paper's central result: IPC of basic block / control
flow / data dependence / task size tasks per benchmark, at 4 and 8
PUs, for out-of-order and in-order PUs.  The report with improvement
percentages lands in ``results/figure5_*.txt``.
"""

import pytest

from benchmarks.conftest import bench_scale, bench_subset, publish
from repro.experiments.figure5 import (
    Figure5Result,
    figure5_specs,
    format_figure5,
)
from repro.harness import run_keyed

CONFIGS = [(4, True), (8, True), (4, False), (8, False)]

_IDS = ["4pu_ooo", "8pu_ooo", "4pu_inorder", "8pu_inorder"]


@pytest.mark.parametrize("config", CONFIGS, ids=_IDS)
def test_bench_figure5(benchmark, config, results_dir):
    names = bench_subset() or []

    def run():
        return Figure5Result(run_keyed(*figure5_specs(
            names, [config], scale=bench_scale())))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    n_pus, ooo = config
    mode = "ooo" if ooo else "inorder"
    publish(
        results_dir,
        f"figure5_{n_pus}pu_{mode}.txt",
        format_figure5(result, configs=[config]),
    )
    # Shape assertions: heuristics must beat basic blocks on average.
    # Only meaningful on a representative sample of a suite.
    from repro.compiler import HeuristicLevel
    from repro.workloads import all_benchmarks

    grid = {key[0] for key in result.records}
    for suite in ("int", "fp"):
        members = [
            bm.name for bm in all_benchmarks()
            if bm.suite == suite and bm.name in grid
        ]
        if len(members) < 3:
            continue
        ratio = result.suite_geomean_ratio(
            suite, HeuristicLevel.DATA_DEPENDENCE, config
        )
        assert ratio > 1.0, f"{suite} suite regressed under heuristics"
