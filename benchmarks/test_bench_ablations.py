"""Ablation benchmarks (experiment ids: abl-n, abl-thresh, abl-sync,
abl-fwd).

Sweeps of the design parameters DESIGN.md calls out: the hardware
target width N, the CALL/LOOP thresholds, the memory synchronisation
table, and the register forwarding policy.  Reports land in
``results/ablation_*.txt``.
"""

from benchmarks.conftest import bench_scale, bench_subset, publish
from repro.experiments.ablations import (
    arb_size_specs,
    format_sweep,
    forward_policy_specs,
    max_targets_specs,
    profile_input_specs,
    sync_table_specs,
    thresholds_specs,
)
from repro.harness import run_keyed

DEFAULT_SUBSET = ["compress", "m88ksim", "hydro2d"]


def _names():
    return bench_subset() or DEFAULT_SUBSET


def test_bench_ablation_max_targets(benchmark, results_dir):
    def run():
        return run_keyed(*max_targets_specs(
            _names(), values=(1, 2, 4, 8), scale=bench_scale()))

    records = benchmark.pedantic(run, rounds=1, iterations=1)
    publish(results_dir, "ablation_max_targets.txt",
            format_sweep(records, "hardware targets N"))
    # N=1 degenerates toward basic blocks: smaller tasks than N=4.
    for name in _names():
        assert (
            records[(name, 1)].mean_task_size
            <= records[(name, 4)].mean_task_size
        )


def test_bench_ablation_thresholds(benchmark, results_dir):
    def run():
        return run_keyed(*thresholds_specs(
            _names(), values=(10, 30, 100), scale=bench_scale()))

    records = benchmark.pedantic(run, rounds=1, iterations=1)
    publish(results_dir, "ablation_thresholds.txt",
            format_sweep(records, "CALL_THRESH = LOOP_THRESH"))
    for name in _names():
        assert (
            records[(name, 100)].mean_task_size
            >= records[(name, 10)].mean_task_size
        )


def test_bench_ablation_sync_table(benchmark, results_dir):
    def run():
        return run_keyed(*sync_table_specs(_names(), scale=bench_scale()))

    records = benchmark.pedantic(run, rounds=1, iterations=1)
    publish(results_dir, "ablation_sync_table.txt",
            format_sweep(records, "memory sync table"))
    for name in _names():
        assert (
            records[(name, True)].memory_squashes
            <= records[(name, False)].memory_squashes
        )


def test_bench_ablation_forward_policy(benchmark, results_dir):
    from repro.sim.config import ForwardPolicy

    def run():
        return run_keyed(*forward_policy_specs(_names(),
                                               scale=bench_scale()))

    records = benchmark.pedantic(run, rounds=1, iterations=1)
    publish(results_dir, "ablation_forward_policy.txt",
            format_sweep(records, "register forwarding policy"))
    for name in _names():
        assert (
            records[(name, ForwardPolicy.EAGER)].cycles
            <= records[(name, ForwardPolicy.LAZY)].cycles
        )


def test_bench_ablation_arb_size(benchmark, results_dir):
    def run():
        return run_keyed(*arb_size_specs(
            _names(), values=(4, 32, 0), scale=bench_scale()))

    records = benchmark.pedantic(run, rounds=1, iterations=1)
    publish(results_dir, "ablation_arb_size.txt",
            format_sweep(records, "ARB entries per PU"))
    for name in _names():
        assert records[(name, 4)].cycles >= records[(name, 0)].cycles


def test_bench_ablation_profile_input(benchmark, results_dir):
    def run():
        return run_keyed(*profile_input_specs(_names(),
                                              scale=bench_scale()))

    records = benchmark.pedantic(run, rounds=1, iterations=1)
    publish(results_dir, "ablation_profile_input.txt",
            format_sweep(records, "profiling input set"))
    for name in _names():
        same = records[(name, "same-input")]
        cross = records[(name, "train-profiled")]
        assert cross.ipc > 0.7 * same.ipc
