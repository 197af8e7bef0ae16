"""Unit tests of the machine's squash paths, driven by hand.

These tests call ``_squash_from`` / ``_squash_wrong`` /
``_check_store_violation`` directly on a machine whose assignment
state was built step by step, so victim selection, penalty charging,
and sequencer rewind are asserted against exact hand-computed values
(the integration suites only observe their aggregate effect on IPC).
"""

import pytest

from repro.compiler import HeuristicLevel, SelectionConfig, select_tasks
from repro.ir import IRBuilder
from repro.ir.interp import run_program
from repro.reliability import InvariantMonitor
from repro.sim import MultiscalarMachine, SimConfig, build_task_stream
from tests.conftest import build_diamond_loop


def build_conflict_program(iterations=40):
    """Adjacent tasks store/load the same address (ARB conflicts)."""
    b = IRBuilder()
    with b.function("main"):
        b.li("r1", 0)
        b.li("r2", iterations)
        body = b.new_label("body")
        done = b.new_label("done")
        b.store("r0", "r0", 600)
        b.jump(body)
        with b.block(body):
            b.load("r3", "r0", 600)
            b.addi("r3", "r3", 1)
            b.muli("r8", "r3", 3)
            b.div("r9", "r8", "r3")
            b.store("r3", "r0", 600)
            b.addi("r1", "r1", 1)
            b.slt("r9", "r1", "r2")
            b.bnez("r9", body, fallthrough=done)
        with b.block(done):
            b.load("r4", "r0", 600)
            b.store("r4", "r0", 601)
            b.halt()
    return b.build()


def build_rotating_conflicts(paths=3, iterations=60):
    """A loop whose iterations cycle through ``paths`` code paths.

    Path k loads the word the previous iteration's path stored, so the
    ARB conflict pairs (store PC, load PC) rotate through ``paths``
    distinct pairs, with several PUs waiting on different pairs at once.
    """
    b = IRBuilder()
    with b.function("main"):
        b.li("r1", 0)
        b.li("r2", iterations)
        b.store("r0", "r0", 600)
        head = b.new_label("head")
        done = b.new_label("done")
        arms = [b.new_label(f"arm{k}") for k in range(paths)]
        latch = b.new_label("latch")
        b.jump(head)
        with b.block(head):
            b.remi("r5", "r1", paths)
            for k in range(paths - 1):
                test = b.new_label(f"test{k}")
                b.seqi("r6", "r5", k)
                b.bnez("r6", arms[k], fallthrough=test)
                b.open_block(test)
            b.jump(arms[-1])
        for k, arm in enumerate(arms):
            with b.block(arm):
                b.load("r3", "r0", 600)
                b.addi("r3", "r3", k + 1)
                b.muli("r8", "r3", 3)
                b.div("r9", "r8", "r3")
                b.add("r3", "r3", "r9")
                b.store("r3", "r0", 600)
                b.jump(latch)
        with b.block(latch):
            b.addi("r1", "r1", 1)
            b.slt("r9", "r1", "r2")
            b.bnez("r9", head, fallthrough=done)
        with b.block(done):
            b.load("r4", "r0", 600)
            b.store("r4", "r0", 601)
            b.halt()
    return b.build()


def make_machine(program, level=HeuristicLevel.CONTROL_FLOW, n_pus=4,
                 monitor=None, **sim_kwargs):
    part = select_tasks(program, SelectionConfig(level=level))
    trace = run_program(part.program)
    stream = build_task_stream(trace, part)
    config = SimConfig(n_pus=n_pus, **sim_kwargs)
    return MultiscalarMachine(stream, config, monitor=monitor)


def assign_tasks(machine, count):
    """Assign ``count`` real tasks, one per cycle starting at cycle 0.

    Cold-predictor mispredictions are cleared after each assignment so
    every slot receives real (not wrong-path) work.
    """
    cycle = 0
    while len(machine.in_flight) < count:
        machine._assign(cycle)
        machine.pending_mispredict = None
        cycle += 1
    return cycle


class TestSquashFrom:
    def test_victims_and_rewind(self):
        m = make_machine(build_diamond_loop())
        assign_tasks(m, 4)
        assert sorted(m.in_flight) == [0, 1, 2, 3]

        m._squash_from(2, cycle=10, memory=True)

        assert sorted(m.in_flight) == [0, 1]
        assert m.next_seq == 2
        # tasks 2 and 3 were assigned at cycles 2 and 3
        assert m.breakdown.memory_misspeculation == (10 - 2) + (10 - 3)
        assert m.breakdown.control_misspeculation == 0
        assert m.resume_cycle == 11

    def test_generation_bumped_only_for_victims(self):
        m = make_machine(build_diamond_loop())
        assign_tasks(m, 4)
        m._squash_from(2, cycle=10, memory=True)
        assert m.state.generation[0] == 0
        assert m.state.generation[1] == 0
        assert m.state.generation[2] == 1
        assert m.state.generation[3] == 1

    def test_ring_resumes_after_survivor(self):
        m = make_machine(build_diamond_loop())
        assign_tasks(m, 4)
        survivor_pu = m.state.pu_of_seq[1]
        m._squash_from(2, cycle=10, memory=True)
        assert m.next_assign_pu == (survivor_pu + 1) % m.config.n_pus

    def test_squash_everything_resets_ring(self):
        m = make_machine(build_diamond_loop())
        assign_tasks(m, 3)
        m._squash_from(0, cycle=7, memory=False)
        assert not m.in_flight
        assert m.next_seq == 0
        assert m.next_assign_pu == 0
        # tasks 0..2 assigned at cycles 0..2
        assert m.breakdown.control_misspeculation == 7 + 6 + 5

    def test_victim_pus_return_to_idle(self):
        m = make_machine(build_diamond_loop())
        assign_tasks(m, 4)
        victim_pus = [m.state.pu_of_seq[s] for s in (2, 3)]
        m._squash_from(2, cycle=10, memory=True)
        for index in victim_pus:
            assert m.pus[index].idle


class TestSquashWrong:
    def test_wrong_path_penalty_charged(self):
        m = make_machine(build_diamond_loop())
        assign_tasks(m, 1)
        m.pending_mispredict = 0
        m._assign(5)  # fills the next PU with wrong-path work
        wrong = [pu for pu in m.pus if pu.wrong]
        assert len(wrong) == 1
        assert wrong[0].assign_cycle == 5

        m._squash_wrong(9)
        assert m.breakdown.control_misspeculation == 9 - 5
        assert not any(pu.wrong for pu in m.pus)
        assert wrong[0].idle

    def test_no_wrong_occupancy_is_a_no_op(self):
        m = make_machine(build_diamond_loop())
        assign_tasks(m, 2)
        m._squash_wrong(9)
        assert m.breakdown.control_misspeculation == 0
        assert sorted(m.in_flight) == [0, 1]


class TestStoreViolation:
    def _indices(self, m):
        state = m.state
        store_idx = next(
            i for i in range(len(state.is_store))
            if state.is_store[i] and state.task_seq[i] == 0
        )
        loads = {}
        for i in range(len(state.is_load)):
            if state.is_load[i]:
                loads.setdefault(state.task_seq[i], i)
        return store_idx, loads

    def test_earliest_victim_selected_and_sync_learned(self):
        m = make_machine(build_conflict_program(), sync_table_size=256)
        assign_tasks(m, 4)
        store_idx, loads = self._indices(m)
        # register out of order: the later task first
        m.register_speculative_load(store_idx, loads[2], 2)
        m.register_speculative_load(store_idx, loads[1], 1)

        m._check_store_violation(store_idx, cycle=8)

        assert m.memory_squashes == 1
        assert sorted(m.in_flight) == [0]  # earliest victim wins: seq 1
        assert m.next_seq == 1
        key = (m.state.pc[store_idx], m.state.pc[loads[1]])
        assert key in m.sync_pairs

    def test_stale_generation_entry_is_skipped(self):
        m = make_machine(build_conflict_program(), sync_table_size=256)
        assign_tasks(m, 3)
        store_idx, loads = self._indices(m)
        m.register_speculative_load(store_idx, loads[1], 1)
        m.state.clear_span(1)  # that execution was squashed meanwhile

        m._check_store_violation(store_idx, cycle=8)

        assert m.memory_squashes == 0
        assert sorted(m.in_flight) == [0, 1, 2]

    def test_departed_task_is_skipped(self):
        m = make_machine(build_conflict_program(), sync_table_size=256)
        assign_tasks(m, 3)
        store_idx, loads = self._indices(m)
        m.register_speculative_load(store_idx, loads[1], 1)
        del m.in_flight[1]  # no longer occupying a PU

        m._check_store_violation(store_idx, cycle=8)
        assert m.memory_squashes == 0

    def test_unknown_store_is_a_no_op(self):
        m = make_machine(build_conflict_program())
        assign_tasks(m, 2)
        m._check_store_violation(10**6, cycle=3)
        assert m.memory_squashes == 0


class _PairRecordingMachine(MultiscalarMachine):
    """Records every distinct (store PC, load PC) pair the table learns."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.learned = set()

    def _learn_sync(self, store_idx, load_idx):
        pc = self.state.pc
        self.learned.add((pc[store_idx], pc[load_idx]))
        super()._learn_sync(store_idx, load_idx)


class TestSyncTableEviction:
    """Both engines with a sync table smaller than the pairs learned.

    The kernel keeps the table's LRU order as per-pair touch stamps and
    evicts the oldest stamp; ``_tick`` keeps an ``OrderedDict`` and
    moves a touched pair to the end.  If the two orders differed under
    eviction, a later overflow would drop another pair and the runs
    would diverge, and the final tables, in LRU order, would differ.
    """

    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("level,n_pus,out_of_order", [
        (HeuristicLevel.CONTROL_FLOW, 4, True),
        (HeuristicLevel.DATA_DEPENDENCE, 8, True),
        (HeuristicLevel.CONTROL_FLOW, 8, False),
    ], ids=["cf-4ooo", "dd-8ooo", "cf-8ino"])
    def test_engines_identical_under_evictions(self, size, level, n_pus,
                                               out_of_order):
        part = select_tasks(build_rotating_conflicts(),
                            SelectionConfig(level=level))
        stream = build_task_stream(run_program(part.program), part)
        identities = {}
        for engine in ("fast", "reference"):
            m = _PairRecordingMachine(stream, SimConfig(
                n_pus=n_pus, out_of_order=out_of_order, engine=engine,
                sync_table_size=size,
            ))
            r = m.run()
            identities[engine] = (
                r.cycles, r.breakdown.as_dict(), r.memory_squashes,
                r.control_squashes, r.squash_depths, r.pu_useful,
                r.pu_occupied, r.cache_stats, list(m.sync_pairs),
            )
        # Only _tick learns through the hook (the kernel learns in C), so
        # the precondition is checked on `m`, the loop's reference run.
        assert len(m.learned) > size, "no eviction happened"
        assert identities["fast"] == identities["reference"]


class TestFullRunReconciliation:
    def test_monitor_reconciles_squash_heavy_run(self):
        monitor = InvariantMonitor()
        m = make_machine(build_conflict_program(), n_pus=4,
                         monitor=monitor, sync_table_size=0)
        result = m.run()  # raises InvariantViolation on any breakage
        assert result.memory_squashes > 0
        assert monitor.violation_events == result.memory_squashes
        assert monitor.memory_penalty == result.breakdown.memory_misspeculation
        assert monitor.control_penalty == (
            result.breakdown.control_misspeculation
        )
        assert monitor.retired_tasks == result.dynamic_tasks

    def test_monitor_reconciles_control_heavy_run(self):
        monitor = InvariantMonitor()
        m = make_machine(build_diamond_loop(), n_pus=4, monitor=monitor)
        result = m.run()
        assert result.committed_instructions == len(m.stream.trace)
        assert monitor.mispredict_events == result.task_mispredictions
