"""Unit tests for the data dependence growth policy."""

from repro.compiler.data_dependence import DependenceBook
from repro.compiler.heuristics import HeuristicLevel, SelectionConfig
from repro.ir import IRBuilder
from repro.ir.analysis import FunctionAnalysis
from repro.profiling import profile_program
from tests.conftest import build_diamond_loop


def producer_consumer_program():
    """A value produced early and consumed two blocks later; a side
    arm bypasses the consumer and rejoins at the loop tail.

    Labels: head_1, produce_2, middle_3, side_4, consume_5, tail_6,
    done_7.  The ranked dependence (r16: produce -> consume) has
    codependent set {produce, middle, consume}; ``side`` is off-path
    with a single predecessor, ``tail`` is the join.
    """
    b = IRBuilder()
    with b.function("main"):
        b.li("r1", 0)
        b.li("r2", 40)
        head = b.new_label("head")
        produce = b.new_label("produce")
        middle = b.new_label("middle")
        side = b.new_label("side")
        consume = b.new_label("consume")
        tail = b.new_label("tail")
        done = b.new_label("done")
        b.jump(head)
        with b.block(head):
            b.slt("r9", "r1", "r2")
            b.beqz("r9", done, fallthrough=produce)
        with b.block(produce):
            b.muli("r16", "r1", 13)   # the producer
            b.seqi("r9", "r1", 39)
            b.bnez("r9", side, fallthrough=middle)
        with b.block(middle):
            b.addi("r8", "r1", 7)
            b.xori("r8", "r8", 2)
        with b.block(consume):
            b.add("r18", "r16", "r8")  # the consumer
            b.store("r18", "r0", 700)
            b.jump(tail)
        with b.block(side):
            b.li("r17", 999)          # bypasses the consumer
            b.jump(tail)
        with b.block(tail):
            b.addi("r1", "r1", 1)
            b.jump(head)
        with b.block(done):
            b.halt()
    return b.build()


def make_book(program, func="main", **config_kwargs):
    config = SelectionConfig(
        level=HeuristicLevel.DATA_DEPENDENCE, **config_kwargs
    )
    profile = profile_program(program)
    function = program.function(func)
    return DependenceBook(
        function, FunctionAnalysis(function), profile, config
    )


def ranking(program):
    return FunctionAnalysis(program.main).ranking(
        program.main, profile_program(program)
    )


class TestRankedDependences:
    def test_sorted_by_frequency(self, diamond_loop):
        freqs = [dep.frequency for dep in ranking(diamond_loop)]
        assert freqs == sorted(freqs, reverse=True)

    def test_zero_frequency_dropped(self, diamond_loop):
        assert all(dep.frequency > 0 for dep in ranking(diamond_loop))

    def test_loop_carried_dropped(self, diamond_loop):
        assert all(dep.codependent for dep in ranking(diamond_loop))

    def test_max_dependences_cap(self, diamond_loop):
        whole = ranking(diamond_loop)
        assert len(whole) > 1
        book = make_book(diamond_loop, max_dependences=1)
        assert book.dependences == whole[:1]


class TestPolicyLifecycle:
    def test_free_growth_before_any_dependence(self):
        prog = producer_consumer_program()
        policy = make_book(prog).policy()
        policy.on_include("head_1")
        assert policy.allow("head_1", "produce_2")

    def test_steers_toward_open_consumer(self):
        prog = producer_consumer_program()
        policy = make_book(prog).policy()
        policy.on_include("head_1")
        policy.on_include("produce_2")  # opens r16 -> consume
        # middle is on the path to the consumer.
        assert policy.allow("produce_2", "middle_3")
        policy.on_include("middle_3")
        assert policy.allow("middle_3", "consume_5")

    def test_off_path_arm_rejected(self):
        prog = producer_consumer_program()
        policy = make_book(prog).policy()
        policy.on_include("head_1")
        policy.on_include("produce_2")
        # side_4 is not on any producer->consumer path and has a
        # single predecessor: steering rejects it.
        assert not policy.allow("produce_2", "side_4")

    def test_join_blocks_always_admitted(self):
        prog = producer_consumer_program()
        book = make_book(prog)
        policy = book.policy()
        policy.on_include("head_1")
        policy.on_include("produce_2")
        policy.on_include("middle_3")
        policy.on_include("consume_5")  # closes the dependence
        assert not policy.open
        assert policy.closed_any
        # tail_6 has two CFG preds (consume and side): it is a join
        # and stays admitted even after closure.
        assert len(book.cfg.preds["tail_6"]) >= 2
        assert policy.allow("consume_5", "tail_6")

    def test_termination_after_closure(self):
        prog = producer_consumer_program()
        policy = make_book(prog).policy()
        for label in ("head_1", "produce_2", "middle_3", "consume_5"):
            policy.on_include(label)
        # Nothing open, something closed: single-pred blocks rejected.
        assert not policy.allow("consume_5", "side_4")
