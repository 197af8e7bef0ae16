"""Tests of the experiment harnesses (small scales for speed)."""

import pytest

from repro.compiler import HeuristicLevel
from repro.experiments import clear_cache, run_benchmark
from repro.experiments.ablations import (
    format_sweep,
    forward_policy_specs,
    max_targets_specs,
    sync_table_specs,
    thresholds_specs,
)
from repro.experiments.breakdown import (
    BreakdownResult,
    breakdown_specs,
    format_breakdown,
)
from repro.experiments.figure5 import (
    Figure5Result,
    figure5_specs,
    format_figure5,
)
from repro.experiments.runner import compile_benchmark
from repro.experiments.table1 import Table1Result, format_table1, table1_specs
from repro.harness import run_keyed

SMALL = 0.15


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


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


class TestTable1:
    def test_table_and_report(self):
        result = Table1Result(run_keyed(*table1_specs(
            ["compress"], n_pus=8, scale=SMALL,
        )))
        bb = result.record("compress", HeuristicLevel.BASIC_BLOCK)
        cf = result.record("compress", HeuristicLevel.CONTROL_FLOW)
        dd = result.record("compress", HeuristicLevel.DATA_DEPENDENCE)
        assert cf.mean_task_size > bb.mean_task_size
        assert dd.window_span_formula > bb.window_span_formula
        text = format_table1(result)
        assert "compress" in text and "#dyn" in text


class TestBreakdownHarness:
    def test_fractions_sum_to_one(self):
        result = BreakdownResult(run_keyed(*breakdown_specs(
            ["compress"], n_pus=4,
            levels=[HeuristicLevel.BASIC_BLOCK], scale=SMALL,
        )))
        fractions = result.fractions("compress", HeuristicLevel.BASIC_BLOCK)
        assert sum(fractions.values()) == pytest.approx(1.0)
        text = format_breakdown(result)
        assert "useful" in text


class TestAblations:
    def test_max_targets_sweep(self):
        records = run_keyed(*max_targets_specs(
            ["compress"], values=(1, 4), scale=SMALL))
        narrow = records[("compress", 1)]
        wide = records[("compress", 4)]
        # One-target tasks are basic-block-like: smaller.
        assert narrow.mean_task_size <= wide.mean_task_size
        assert "ablation" in format_sweep(records, "N")

    def test_threshold_sweep(self):
        records = run_keyed(*thresholds_specs(
            ["compress"], values=(10, 60), scale=SMALL))
        small_t = records[("compress", 10)]
        large_t = records[("compress", 60)]
        assert large_t.mean_task_size >= small_t.mean_task_size

    def test_sync_table_sweep(self):
        records = run_keyed(*sync_table_specs(["m88ksim"], scale=SMALL))
        with_sync = records[("m88ksim", True)]
        without = records[("m88ksim", False)]
        assert with_sync.memory_squashes <= without.memory_squashes

    def test_forward_policy_sweep(self):
        from repro.sim.config import ForwardPolicy

        records = run_keyed(*forward_policy_specs(["compress"], scale=SMALL))
        eager = records[("compress", ForwardPolicy.EAGER)]
        lazy = records[("compress", ForwardPolicy.LAZY)]
        assert eager.cycles <= lazy.cycles
