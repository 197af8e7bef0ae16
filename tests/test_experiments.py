"""Tests of the experiment harnesses.

Each grid is checked at a small scale for speed, and its paper-level
shape once more at scale 1.0: on all 18 benchmarks for Figure 5 and
Table 1, on a fixed subset for the other studies.  EXPERIMENTS.md
states the verdicts these checks hold.
"""

import pytest

from repro.compiler import HeuristicLevel
from repro.experiments import clear_cache, run_benchmark
from repro.experiments.ablations import (
    format_sweep,
    forward_policy_specs,
    max_targets_specs,
    profile_input_specs,
    sync_table_specs,
    thresholds_specs,
)
from repro.experiments.breakdown import (
    BreakdownResult,
    breakdown_specs,
    format_breakdown,
)
from repro.experiments.figure5 import (
    DEFAULT_CONFIGS,
    Figure5Result,
    figure5_specs,
    format_figure5,
)
from repro.experiments.runner import compile_benchmark
from repro.experiments.table1 import Table1Result, format_table1, table1_specs
from repro.harness import run_keyed
from repro.sim.config import ForwardPolicy
from repro.workloads import all_benchmarks

SMALL = 0.15
PAPER = 1.0

#: the ablation sweeps' paper-scale subset: two integer codes, one fp
ABLATION_BENCHMARKS = ["compress", "m88ksim", "hydro2d"]

#: the Figure 2 breakdown's paper-scale subset
BREAKDOWN_BENCHMARKS = ["compress", "m88ksim", "li", "tomcatv", "hydro2d",
                        "fpppp"]

HEURISTICS = (HeuristicLevel.CONTROL_FLOW, HeuristicLevel.DATA_DEPENDENCE,
              HeuristicLevel.TASK_SIZE)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


@pytest.fixture(scope="module")
def paper_figure5():
    """The full Figure 5 grid: 18 benchmarks x 4 levels x 4 machines."""
    return Figure5Result(run_keyed(*figure5_specs(scale=PAPER)))


def _names(records):
    """The benchmarks of a keyed record grid."""
    return sorted({key[0] for key in records})


class TestRunner:
    def test_run_record_fields(self):
        rec = run_benchmark(
            "compress", HeuristicLevel.CONTROL_FLOW, n_pus=4, scale=SMALL
        )
        assert rec.benchmark == "compress" and rec.suite == "int"
        assert rec.ipc > 0
        assert rec.instructions > 0
        assert rec.mean_task_size > 1
        assert 0 <= rec.task_misprediction_percent <= 100
        assert rec.window_span_formula >= rec.mean_task_size
        assert rec.branch_normalized_misprediction_percent <= (
            rec.task_misprediction_percent + 1e-9
        )

    def test_selection_fields_never_alias_cache_entries(self):
        # Regression: the key once hand-picked three SelectionConfig
        # fields, so configs differing only in the others (max_unroll,
        # hoist_induction, ...) silently shared a cached partition.
        from dataclasses import replace

        from repro.compiler import SelectionConfig

        base = SelectionConfig(level=HeuristicLevel.TASK_SIZE)
        c_base = compile_benchmark(
            "compress", HeuristicLevel.TASK_SIZE, SMALL, selection=base
        )
        for change in (
            {"max_unroll": 1},
            {"hoist_induction": False},
            {"schedule_communication": False},
            {"max_dependences": 3},
        ):
            variant = compile_benchmark(
                "compress",
                HeuristicLevel.TASK_SIZE,
                SMALL,
                selection=replace(base, **change),
            )
            assert variant is not c_base, change

    def test_compilation_cache_reused(self):
        c1 = compile_benchmark("compress", HeuristicLevel.CONTROL_FLOW, SMALL)
        c2 = compile_benchmark("compress", HeuristicLevel.CONTROL_FLOW, SMALL)
        assert c1 is c2
        clear_cache()
        c3 = compile_benchmark("compress", HeuristicLevel.CONTROL_FLOW, SMALL)
        assert c3 is not c1

    def test_pu_sweep_shares_compilation(self):
        r4 = run_benchmark(
            "compress", HeuristicLevel.CONTROL_FLOW, n_pus=4, scale=SMALL
        )
        r8 = run_benchmark(
            "compress", HeuristicLevel.CONTROL_FLOW, n_pus=8, scale=SMALL
        )
        assert r4.instructions == r8.instructions
        assert r4.mean_task_size == r8.mean_task_size


class TestFigure5:
    def test_grid_and_report(self):
        result = Figure5Result(run_keyed(*figure5_specs(
            ["compress", "hydro2d"], [(4, True)], scale=SMALL,
        )))
        gain = result.improvement(
            "compress", HeuristicLevel.CONTROL_FLOW, (4, True)
        )
        assert gain > 0  # heuristics beat basic blocks
        text = format_figure5(result, configs=[(4, True)])
        assert "Figure 5" in text and "compress" in text
        lo, hi = result.suite_improvement_range(
            "int", HeuristicLevel.CONTROL_FLOW, (4, True)
        )
        assert lo <= hi
        assert result.suite_geomean_ratio(
            "int", HeuristicLevel.CONTROL_FLOW, (4, True)
        ) > 1.0

    def test_heuristics_beat_basic_blocks_out_of_order(self, paper_figure5):
        """CF, DD and TS tasks raise IPC over basic-block tasks on
        every benchmark with out-of-order PUs, at 4 and 8 PUs."""
        assert len(_names(paper_figure5.records)) == len(all_benchmarks())
        for config in ((4, True), (8, True)):
            for name in _names(paper_figure5.records):
                for level in HEURISTICS:
                    gain = paper_figure5.improvement(name, level, config)
                    assert gain > 0, (name, level.value, config)

    def test_suites_gain_on_every_machine(self, paper_figure5):
        """Both suites' geometric-mean DD IPC beats basic blocks on all
        four machines.  In-order, a few integer benchmarks regress
        (EXPERIMENTS.md's known divergence), so only the suite mean is
        held there."""
        for config in DEFAULT_CONFIGS:
            for suite in ("int", "fp"):
                ratio = paper_figure5.suite_geomean_ratio(
                    suite, HeuristicLevel.DATA_DEPENDENCE, config
                )
                assert ratio > 1.0, (suite, config)


class TestTable1:
    def test_table_and_report(self):
        """Sections 4.3.2-4.3.4 on 8 PUs: on compress at a small scale,
        and on all 18 benchmarks at scale 1.0."""
        for names, scale in ((["compress"], SMALL), ([], PAPER)):
            result = Table1Result(run_keyed(*table1_specs(
                names, n_pus=8, scale=scale,
            )))
            grid = _names(result.records)
            larger = 0
            span_wins = 0
            for name in grid:
                bb = result.record(name, HeuristicLevel.BASIC_BLOCK)
                cf = result.record(name, HeuristicLevel.CONTROL_FLOW)
                dd = result.record(name, HeuristicLevel.DATA_DEPENDENCE)
                if cf.mean_task_size > bb.mean_task_size:
                    larger += 1
                # Window span: data dependence tasks dominate basic
                # blocks, with near-ties allowed (fpppp's giant basic
                # blocks already span well, and its CF/DD prediction is
                # poor; only the task size heuristic helps it, as the
                # paper reports).
                assert (
                    dd.window_span_formula > bb.window_span_formula * 0.9
                ), (name, scale)
                if dd.window_span_formula > bb.window_span_formula:
                    span_wins += 1
                # Per-branch normalisation shrinks the rate whenever
                # tasks average at least one conditional branch (for
                # B < 1 the equivalent per-branch rate is legitimately
                # higher).
                if dd.mean_branches >= 1.0:
                    assert (
                        dd.branch_normalized_misprediction_percent
                        <= dd.task_misprediction_percent + 1e-9
                    ), (name, scale)
            assert larger >= 0.9 * len(grid), scale
            assert span_wins >= 0.85 * len(grid), scale
        assert len(grid) == len(all_benchmarks())
        text = format_table1(result)
        assert "compress" in text and "#dyn" in text


class TestBreakdownHarness:
    def test_fractions_sum_to_one(self):
        """Every cell's categories account for all attributed cycles."""
        for result in (
            BreakdownResult(run_keyed(*breakdown_specs(
                ["compress"], n_pus=4,
                levels=[HeuristicLevel.BASIC_BLOCK], scale=SMALL,
            ))),
            BreakdownResult(run_keyed(*breakdown_specs(
                BREAKDOWN_BENCHMARKS, n_pus=4, scale=PAPER,
            ))),
        ):
            for key in result.records:
                fractions = result.fractions(*key)
                assert abs(sum(fractions.values()) - 1.0) < 1e-9, key
        text = format_breakdown(result)
        assert "useful" in text


class TestAblations:
    """Each sweep's claim on the paper-scale subset and, for all but
    the profile-input sweep, on a small grid too."""

    def test_max_targets_sweep(self):
        for records in (
            run_keyed(*max_targets_specs(
                ["compress"], values=(1, 4), scale=SMALL)),
            run_keyed(*max_targets_specs(
                ABLATION_BENCHMARKS, values=(1, 2, 4, 8), scale=PAPER)),
        ):
            for name in _names(records):
                narrow = records[(name, 1)]
                wide = records[(name, 4)]
                # One-target tasks are basic-block-like: smaller.
                assert narrow.mean_task_size <= wide.mean_task_size, name
        assert "ablation" in format_sweep(records, "N")

    def test_threshold_sweep(self):
        for records, large in (
            (run_keyed(*thresholds_specs(
                ["compress"], values=(10, 60), scale=SMALL)), 60),
            (run_keyed(*thresholds_specs(
                ABLATION_BENCHMARKS, values=(10, 30, 100), scale=PAPER)),
             100),
        ):
            for name in _names(records):
                small_t = records[(name, 10)]
                large_t = records[(name, large)]
                assert large_t.mean_task_size >= small_t.mean_task_size, name

    def test_sync_table_sweep(self):
        for records in (
            run_keyed(*sync_table_specs(["m88ksim"], scale=SMALL)),
            run_keyed(*sync_table_specs(ABLATION_BENCHMARKS, scale=PAPER)),
        ):
            for name in _names(records):
                with_sync = records[(name, True)]
                without = records[(name, False)]
                assert (
                    with_sync.memory_squashes <= without.memory_squashes
                ), name

    def test_forward_policy_sweep(self):
        """eager <= schedule <= lazy cycles: compiled release points
        sit between oracle forwarding and task-end forwarding."""
        for records in (
            run_keyed(*forward_policy_specs(["compress"], scale=SMALL)),
            run_keyed(*forward_policy_specs(ABLATION_BENCHMARKS,
                                            scale=PAPER)),
        ):
            for name in _names(records):
                eager = records[(name, ForwardPolicy.EAGER)]
                schedule = records[(name, ForwardPolicy.SCHEDULE)]
                lazy = records[(name, ForwardPolicy.LAZY)]
                assert eager.cycles <= schedule.cycles <= lazy.cycles, name

    def test_profile_input_sweep(self):
        """Tasks selected on train-input profiles keep most of the IPC
        of tasks selected on the measured input."""
        records = run_keyed(*profile_input_specs(ABLATION_BENCHMARKS,
                                                 scale=PAPER))
        for name in ABLATION_BENCHMARKS:
            same = records[(name, "same-input")]
            cross = records[(name, "train-profiled")]
            assert cross.ipc > 0.7 * same.ipc, name
