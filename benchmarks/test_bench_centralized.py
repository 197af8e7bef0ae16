"""Distributed vs centralized benchmark (experiment id: motiv).

The paper's Section 1 motivation: a distributed processor with good
task selection competes with (and out-clocks) a wide centralized
window.  Report: ``results/centralized.txt``.
"""

from benchmarks.conftest import bench_scale, bench_subset, publish
from repro.experiments.centralized import (
    CentralizedResult,
    centralized_specs,
    format_centralized,
)
from repro.harness import run_keyed

DEFAULT_SUBSET = ["compress", "m88ksim", "go", "tomcatv", "mgrid", "wave5"]


def test_bench_centralized(benchmark, results_dir):
    names = bench_subset() or DEFAULT_SUBSET

    def run():
        return CentralizedResult(8, run_keyed(*centralized_specs(
            names, n_pus=8, scale=bench_scale())))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    publish(results_dir, "centralized.txt", format_centralized(result))

    factors = [result.break_even_clock_factor(name) for name in names]
    # On at least half the subset the distributed machine should win
    # outright (break-even below 1.0) — the paper's premise is that it
    # additionally clocks faster.
    assert sum(1 for f in factors if f < 1.0) >= len(factors) / 2
