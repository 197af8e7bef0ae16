"""Tests for the centralized comparison and ARB capacity modeling."""

import pytest

from repro.compiler import HeuristicLevel, SelectionConfig, select_tasks
from repro.experiments import clear_cache
from repro.experiments.centralized import (
    CentralizedResult,
    centralized_config,
    centralized_specs,
    format_centralized,
)
from repro.harness import run_keyed
from repro.ir import IRBuilder
from repro.ir.interp import run_program
from repro.sim import SimConfig, build_task_stream, simulate


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestCentralizedConfig:
    def test_aggregates_resources(self):
        config = centralized_config(8)
        assert config.n_pus == 1
        assert config.issue_width == 16
        assert config.rob_size == 128
        assert config.int_units == 16
        assert config.l1d.size_bytes == 128 * 1024

    def test_comparison_and_report(self):
        result = CentralizedResult(4, run_keyed(*centralized_specs(
            ["compress"], n_pus=4, scale=0.15,
        )))
        factor = result.break_even_clock_factor("compress")
        assert factor > 0
        text = format_centralized(result)
        assert "compress" in text and "break-even" in text

    def test_distributed_wins_on_loop_code(self):
        """Task speculation sees past branches a single window cannot:
        the distributed machine wins outright (break-even below 1.0) on
        tomcatv at a small scale, and at scale 1.0 on at least half of
        a mixed subset.  The paper's premise is that it also clocks
        faster."""
        for names, scale in (
            (["tomcatv"], 0.3),
            (["compress", "m88ksim", "go", "tomcatv", "mgrid", "wave5"],
             1.0),
        ):
            result = CentralizedResult(8, run_keyed(*centralized_specs(
                names, n_pus=8, scale=scale,
            )))
            factors = [result.break_even_clock_factor(n) for n in names]
            wins = sum(1 for factor in factors if factor < 1.0)
            assert wins >= len(factors) / 2, (scale, factors)


class TestArbCapacity:
    def _memory_heavy_program(self):
        """A loop whose body performs many memory operations."""
        b = IRBuilder()
        with b.function("main"):
            b.li("r1", 0)
            b.li("r2", 30)
            body = b.new_label("body")
            done = b.new_label("done")
            b.jump(body)
            with b.block(body):
                b.muli("r8", "r1", 16)
                for k in range(12):
                    b.addi("r9", "r8", 1000 + k)
                    b.store("r1", "r9", 0)
                    b.load("r10", "r9", 0)
                b.addi("r1", "r1", 1)
                b.slt("r9", "r1", "r2")
                b.bnez("r9", body, fallthrough=done)
            with b.block(done):
                b.halt()
        return b.build()

    def _run(self, arb_entries):
        part = select_tasks(
            self._memory_heavy_program(),
            SelectionConfig(level=HeuristicLevel.CONTROL_FLOW),
        )
        trace = run_program(part.program)
        stream = build_task_stream(trace, part)
        return simulate(
            stream,
            SimConfig(n_pus=4, arb_entries_per_pu=arb_entries),
        )

    def test_small_arb_slows_speculative_tasks(self):
        tiny = self._run(2)
        large = self._run(64)
        assert tiny.cycles > large.cycles

    def test_unbounded_matches_large(self):
        unbounded = self._run(0)
        large = self._run(1024)
        assert unbounded.cycles == large.cycles

    def test_completes_under_pressure(self):
        result = self._run(1)
        # The head task bypasses the ARB, so progress is guaranteed.
        assert result.committed_instructions > 0


class TestArbAblationSweep:
    def test_sweep_ordering(self):
        """A 4-entry ARB never beats an unbounded one, on a small grid
        and on the ablations' paper-scale subset."""
        from repro.experiments.ablations import arb_size_specs

        for records in (
            run_keyed(*arb_size_specs(["wave5"], values=(4, 0), scale=0.2)),
            run_keyed(*arb_size_specs(["compress", "m88ksim", "hydro2d"],
                                      values=(4, 32, 0), scale=1.0)),
        ):
            for name in {name for name, _ in records}:
                constrained = records[(name, 4)]
                unbounded = records[(name, 0)]
                assert constrained.cycles >= unbounded.cycles, name
