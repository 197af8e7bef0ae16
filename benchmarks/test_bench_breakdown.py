"""Figure 2 cycle-accounting benchmark (experiment id: fig2).

Measures where the PU-cycles go (task start/end overhead, intra/inter
task data delays, memory stalls, load imbalance, misspeculation
penalties, idle) for a representative subset across the heuristic
progression.  Report: ``results/breakdown.txt``.
"""

from benchmarks.conftest import bench_scale, bench_subset, publish
from repro.experiments.breakdown import (
    BreakdownResult,
    breakdown_specs,
    format_breakdown,
)
from repro.harness import run_keyed

DEFAULT_SUBSET = ["compress", "m88ksim", "li", "tomcatv", "hydro2d", "fpppp"]


def test_bench_breakdown(benchmark, results_dir):
    names = bench_subset() or DEFAULT_SUBSET

    def run():
        return BreakdownResult(run_keyed(*breakdown_specs(
            names, n_pus=4, scale=bench_scale())))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    publish(results_dir, "breakdown.txt", format_breakdown(result))

    # Every run's categories must account for all attributed cycles.
    for key in result.records:
        fractions = result.fractions(*key)
        assert abs(sum(fractions.values()) - 1.0) < 1e-9
