"""Unit tests for terminal rules and greedy task growth."""

from repro.compiler.control_flow import GrowthContext, GrowthPolicy
from repro.compiler.heuristics import HeuristicLevel, SelectionConfig
from repro.compiler.task import TargetKind
from repro.ir import IRBuilder
from repro.ir.analysis import FunctionAnalysis
from tests.conftest import build_call_program, build_diamond_loop


def make_context(program, func="main", level=HeuristicLevel.CONTROL_FLOW,
                 absorbed=None, **cfg_kwargs):
    config = SelectionConfig(level=level, **cfg_kwargs)
    return GrowthContext(
        program, func, FunctionAnalysis(program.function(func)), config,
        absorbed_functions=absorbed or set(),
    )


def call_block_label(program, func="main"):
    """Label of the first block ending in a CALL."""
    return next(
        blk.label for blk in program.function(func).blocks()
        if blk.ends_in_call
    )


def halt_block_label(program, func="main"):
    """Label of the first block ending in HALT."""
    return next(
        blk.label for blk in program.function(func).blocks()
        if blk.ends_in_halt
    )


class TestTerminalRules:
    def test_call_block_is_terminal(self):
        prog = build_call_program("large")
        ctx = make_context(prog)
        assert ctx.is_terminal_node(call_block_label(prog))

    def test_absorbed_call_block_is_not_terminal(self):
        prog = build_call_program("small")
        ctx = make_context(prog, absorbed={"helper"})
        label = call_block_label(prog)
        assert not ctx.is_terminal_node(label)
        assert ctx.call_is_absorbed(label)

    def test_return_and_halt_blocks_terminal(self):
        prog = build_call_program("small")
        helper_ctx = make_context(prog, func="helper")
        assert helper_ctx.is_terminal_node("entry")  # helper entry RETs
        main_ctx = make_context(prog)
        assert main_ctx.is_terminal_node(halt_block_label(prog))

    def test_back_edge_terminal(self):
        prog = build_diamond_loop()
        ctx = make_context(prog)
        assert ctx.is_terminal_edge("join_4", "body_1")
        assert not ctx.is_terminal_edge("body_1", "then_2")

    def test_loop_entry_edge_terminal(self):
        prog = build_diamond_loop()
        ctx = make_context(prog)
        assert ctx.is_terminal_edge("entry", "body_1")

    def test_loop_exit_edge_terminal(self):
        prog = build_diamond_loop()
        ctx = make_context(prog)
        assert ctx.is_terminal_edge("join_4", "done_5")


class TestTargets:
    def test_single_block_targets(self):
        prog = build_diamond_loop()
        ctx = make_context(prog)
        targets = ctx.compute_targets({"body_1"})
        kinds = {t.kind for t in targets}
        assert kinds == {TargetKind.BLOCK}
        assert {t.block[1] for t in targets} == {"then_2", "other_3"}

    def test_loop_body_targets_include_header_and_exit(self):
        prog = build_diamond_loop()
        ctx = make_context(prog)
        members = {"body_1", "then_2", "other_3", "join_4"}
        targets = ctx.compute_targets(members)
        names = {t.block[1] for t in targets}
        assert names == {"body_1", "done_5"}

    def test_call_and_halt_target_kinds(self):
        prog = build_call_program("large")
        ctx = make_context(prog)
        targets = ctx.compute_targets({call_block_label(prog)})
        assert [t.kind for t in targets] == [TargetKind.CALL]
        assert targets[0].block == ("helper", "entry")
        halt = ctx.compute_targets({halt_block_label(prog)})
        assert [t.kind for t in halt] == [TargetKind.HALT]

    def test_return_target_kind(self):
        prog = build_call_program("small")
        ctx = make_context(prog, func="helper")
        targets = ctx.compute_targets({"entry"})
        assert [t.kind for t in targets] == [TargetKind.RETURN]


class TestGrowth:
    def test_basic_block_level_never_grows(self):
        prog = build_diamond_loop()
        ctx = make_context(prog, level=HeuristicLevel.BASIC_BLOCK)
        assert ctx.grow("body_1") == {"body_1"}

    def test_growth_reconverges_through_diamond(self):
        prog = build_diamond_loop()
        ctx = make_context(prog)
        members = ctx.grow("body_1")
        assert members == {"body_1", "then_2", "other_3", "join_4"}

    def test_growth_stops_at_terminal_edges(self):
        prog = build_diamond_loop()
        ctx = make_context(prog)
        members = ctx.grow("entry")
        assert members == {"entry"}  # loop entry edge is terminal

    def test_feasible_prefix_respects_target_limit(self):
        # A switch whose 5 cases each call a *different* function:
        # every included case adds one CALL target, so with
        # max_targets=2 the grower must roll back to a short prefix
        # while max_targets=8 keeps everything.
        b = IRBuilder()
        for i in range(5):
            with b.function(f"f{i}"):
                b.ret()
        with b.function("main"):
            b.li("r1", 0)
            cases = [b.new_label(f"case{i}") for i in range(5)]
            tests = [b.new_label(f"test{i}") for i in range(4)]
            done = b.new_label("done")
            b.seqi("r9", "r1", 0)
            b.bnez("r9", cases[0], fallthrough=tests[0])
            for i in range(4):
                with b.block(tests[i]):
                    b.seqi("r9", "r1", i + 1)
                    nxt = tests[i + 1] if i + 1 < 4 else cases[4]
                    b.bnez("r9", cases[i + 1], fallthrough=nxt)
            for i, case in enumerate(cases):
                with b.block(case):
                    b.call(f"f{i}", fallthrough=done if i == 0 else cases[0])
            with b.block(done):
                b.halt()
        prog = b.build()
        narrow = make_context(prog, max_targets=2)
        members = narrow.grow("entry")
        assert len(narrow.compute_targets(members)) <= 2
        wide = make_context(prog, max_targets=8)
        wide_members = wide.grow("entry")
        assert len(wide_members) > len(members)
        assert len(wide.compute_targets(wide_members)) > 2

    def test_policy_can_veto_growth(self):
        prog = build_diamond_loop()
        ctx = make_context(prog)

        class Nothing(GrowthPolicy):
            def allow(self, parent, child):
                return False

        assert ctx.grow("body_1", policy=Nothing()) == {"body_1"}

    def test_internal_edges_match_members(self):
        prog = build_diamond_loop()
        ctx = make_context(prog)
        members = ctx.grow("body_1")
        edges = ctx.compute_internal_edges(members)
        labels = {(s[1], d[1]) for s, d in edges}
        assert ("body_1", "then_2") in labels
        assert ("join_4", "body_1") not in labels  # back edge
