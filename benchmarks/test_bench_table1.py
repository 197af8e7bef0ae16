"""Table 1 regeneration benchmark (experiment id: tab1).

Dynamic task size, control transfer instructions per task, task and
per-branch misprediction percentages, and window span for basic block
/ control flow / data dependence tasks on the 8-PU machine.  Report:
``results/table1.txt``.
"""

from benchmarks.conftest import bench_scale, bench_subset, publish
from repro.compiler import HeuristicLevel
from repro.experiments.table1 import Table1Result, format_table1, table1_specs
from repro.harness import run_keyed


def test_bench_table1(benchmark, results_dir):
    names = bench_subset() or []

    def run():
        return Table1Result(run_keyed(*table1_specs(
            names, n_pus=8, scale=bench_scale())))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    publish(results_dir, "table1.txt", format_table1(result))

    # Shape assertions (Sections 4.3.2-4.3.4).
    grid_names = sorted({key[0] for key in result.records})
    larger = 0
    span_wins = 0
    for name in grid_names:
        bb = result.record(name, HeuristicLevel.BASIC_BLOCK)
        cf = result.record(name, HeuristicLevel.CONTROL_FLOW)
        dd = result.record(name, HeuristicLevel.DATA_DEPENDENCE)
        if cf.mean_task_size > bb.mean_task_size:
            larger += 1
        # Window span: data dependence tasks dominate basic blocks —
        # with near-ties allowed (fpppp's giant basic blocks already
        # span well, and its CF/DD prediction is poor; only the task
        # size heuristic helps it, as the paper reports).
        assert dd.window_span_formula > bb.window_span_formula * 0.9, name
        if dd.window_span_formula > bb.window_span_formula:
            span_wins += 1
        # Per-branch normalisation shrinks the rate whenever tasks
        # average at least one conditional branch (for B < 1 the
        # equivalent per-branch rate is legitimately higher).
        if dd.mean_branches >= 1.0:
            assert (
                dd.branch_normalized_misprediction_percent
                <= dd.task_misprediction_percent + 1e-9
            )
    assert larger >= 0.9 * len(grid_names)
    assert span_wins >= 0.85 * len(grid_names)
