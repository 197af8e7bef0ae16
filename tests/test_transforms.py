"""Unit tests for loop unrolling, induction expansion, and hoisting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.transforms import (
    clone_program,
    hoist_induction_increments,
    loop_static_size,
    unroll_small_loops,
)
from repro.ir import IRBuilder
from repro.ir.asmtext import program_to_text
from repro.ir.cfg import build_cfg
from repro.ir.interp import Interpreter
from repro.workloads import get_benchmark
from tests.conftest import build_diamond_loop


def run_memory(program):
    interp = Interpreter(program)
    interp.run()
    return interp.memory


def build_counter_loop(trips: int, use_var_in_body: bool = True):
    """sum += f(i) over i in [0, trips) with the increment at the bottom."""
    b = IRBuilder()
    with b.function("main"):
        b.li("r1", 0)
        b.li("r2", trips)
        b.li("r3", 0)
        head = b.new_label("head")
        body = b.new_label("body")
        done = b.new_label("done")
        b.jump(head)
        with b.block(head):
            b.slt("r9", "r1", "r2")
            b.beqz("r9", done, fallthrough=body)
        with b.block(body):
            if use_var_in_body:
                b.muli("r8", "r1", 3)
                b.add("r3", "r3", "r8")
            else:
                b.addi("r3", "r3", 2)
            b.addi("r1", "r1", 1)
            b.jump(head)
        with b.block(done):
            b.store("r3", "r0", 100)
            b.halt()
    return b.build()


class TestClone:
    def test_clone_is_independent(self, diamond_loop):
        clone = clone_program(diamond_loop)
        clone.main.entry.instructions.pop()
        assert clone.main.entry.size != diamond_loop.main.entry.size

    @pytest.mark.parametrize("name", ["compress", "tomcatv"])
    def test_clone_text_equals_the_original(self, name):
        program = get_benchmark(name).build(0.1)
        assert program.memory_image
        assert program_to_text(clone_program(program)) == (
            program_to_text(program)
        )

    def test_unrolling_a_clone_leaves_the_original(self):
        program = build_counter_loop(8)
        before = program_to_text(program)
        clone = clone_program(program)
        assert unroll_small_loops(clone, loop_thresh=30, max_unroll=4) == 1
        assert program_to_text(clone) != before
        assert program_to_text(program) == before


class TestUnrolling:
    @pytest.mark.parametrize("trips", [0, 1, 3, 4, 7, 16])
    def test_semantics_preserved_any_trip_count(self, trips):
        base = run_memory(build_counter_loop(trips))
        prog = clone_program(build_counter_loop(trips))
        n = unroll_small_loops(prog, loop_thresh=30, max_unroll=4)
        assert n == 1
        prog.validate()
        assert run_memory(prog) == base

    def test_unroll_replicates_blocks(self):
        prog = clone_program(build_counter_loop(8))
        before = len(prog.main.labels())
        unroll_small_loops(prog, loop_thresh=30, max_unroll=4)
        after = len(prog.main.labels())
        assert after > before
        assert any("#u" in lbl for lbl in prog.main.labels())

    def test_large_loops_not_unrolled(self, diamond_loop):
        prog = clone_program(diamond_loop)
        assert unroll_small_loops(prog, loop_thresh=3) == 0

    def test_induction_expansion_emits_prologue(self):
        prog = clone_program(build_counter_loop(12))
        unroll_small_loops(prog, loop_thresh=30, max_unroll=4)
        cfg = build_cfg(prog.main)
        header = next(lp.header for lp in cfg.loops)
        first = prog.main.block(header).instructions[0]
        # Prologue advances the induction register by factor * step.
        assert first.dst == "r1"
        assert first.imm == 4

    def test_expansion_skipped_when_var_live_at_exit(self):
        # Make the loop variable observable after the loop.
        b = IRBuilder()
        with b.function("main"):
            b.li("r1", 0)
            b.li("r2", 9)
            head, body, done = (
                b.new_label("head"), b.new_label("body"), b.new_label("done")
            )
            b.jump(head)
            with b.block(head):
                b.slt("r9", "r1", "r2")
                b.beqz("r9", done, fallthrough=body)
            with b.block(body):
                b.addi("r3", "r3", 2)
                b.addi("r1", "r1", 1)
                b.jump(head)
            with b.block(done):
                b.store("r1", "r0", 100)  # r1 live here
                b.halt()
        base_prog = b.build()
        base = run_memory(base_prog)
        prog = clone_program(base_prog)
        unroll_small_loops(prog, loop_thresh=30, max_unroll=4)
        assert run_memory(prog) == base
        assert run_memory(prog)[100] == 9

    @settings(max_examples=25, deadline=None)
    @given(
        trips=st.integers(0, 25),
        thresh=st.integers(5, 40),
        factor=st.integers(2, 8),
    )
    def test_unroll_property_semantics(self, trips, thresh, factor):
        base = run_memory(build_counter_loop(trips))
        prog = clone_program(build_counter_loop(trips))
        unroll_small_loops(prog, loop_thresh=thresh, max_unroll=factor)
        prog.validate()
        assert run_memory(prog) == base


class TestHoisting:
    def test_hoist_moves_increment_to_header(self):
        prog = clone_program(build_counter_loop(10))
        assert hoist_induction_increments(prog) == 1
        cfg = build_cfg(prog.main)
        header = next(lp.header for lp in cfg.loops)
        first = prog.main.block(header).instructions[0]
        assert first.dst == "r1" and first.imm == 1

    @pytest.mark.parametrize("trips", [0, 1, 5, 10])
    @pytest.mark.parametrize("use_var", [True, False])
    def test_hoist_preserves_semantics(self, trips, use_var):
        base = run_memory(build_counter_loop(trips, use_var))
        prog = clone_program(build_counter_loop(trips, use_var))
        hoist_induction_increments(prog)
        prog.validate()
        assert run_memory(prog) == base

    def test_hoist_skipped_when_live_at_exit_from_other_block(self):
        # Exit from the head, variable observed after: hoisting is
        # still legal here because the head's test is rewritten to the
        # temp... unless the var is live at the exit target.
        b = IRBuilder()
        with b.function("main"):
            b.li("r1", 0)
            head, body, done = (
                b.new_label("head"), b.new_label("body"), b.new_label("done")
            )
            b.jump(head)
            with b.block(head):
                b.slti("r9", "r1", 7)
                b.beqz("r9", done, fallthrough=body)
            with b.block(body):
                b.addi("r1", "r1", 1)
                b.jump(head)
            with b.block(done):
                b.store("r1", "r0", 100)
                b.halt()
        base_prog = b.build()
        base = run_memory(base_prog)
        prog = clone_program(base_prog)
        hoist_induction_increments(prog)
        assert run_memory(prog) == base

    def test_diamond_loop_hoist_preserves_semantics(self, diamond_loop):
        base = run_memory(diamond_loop)
        prog = clone_program(diamond_loop)
        hoist_induction_increments(prog)
        assert run_memory(prog) == base


class TestLoopSize:
    def test_loop_static_size(self):
        prog = build_counter_loop(5)
        cfg = build_cfg(prog.main)
        loop = cfg.loops[0]
        assert loop_static_size(prog.main, loop) == sum(
            prog.main.block(lbl).size for lbl in loop.body
        )
