"""The program-order memory gate of the issue scan, driven by hand.

Memory operations issue in program order within a task: only the
first memory op an issue scan meets (the oldest unissued one) may
issue, so at most one leaves a PU's window per cycle.  The hand task
below puts a load whose address register comes from a 12-cycle divide
ahead of a store and a load whose operands are ready at once, on a
machine with two memory units and four issue slots: only the gate can
hold the later two back.  ``_tick`` is driven cycle by cycle and every
memory op leaving ``pu.unissued`` is checked against the gate; the
kernel must agree with ``_tick`` on the whole run.
"""

import pytest

from repro.compiler import HeuristicLevel, SelectionConfig, select_tasks
from repro.ir import IRBuilder
from repro.ir.interp import run_program
from repro.sim import MultiscalarMachine, SimConfig, build_task_stream


def build_gated_task():
    """One task: a load behind a divide, then a ready store and load."""
    b = IRBuilder()
    with b.function("main"):
        b.li("r1", 6000)
        b.li("r2", 10)
        b.li("r5", 7)
        b.div("r3", "r1", "r2")   # 600, after 12 cycles
        b.load("r4", "r3", 0)     # its address waits for the divide
        b.store("r5", "r0", 601)  # ready: only the gate holds it
        b.load("r6", "r0", 602)   # ready too
        b.halt()
    return b.build()


def gated_stream():
    part = select_tasks(build_gated_task(),
                        SelectionConfig(level=HeuristicLevel.BASIC_BLOCK))
    stream = build_task_stream(run_program(part.program), part)
    assert len(stream.tasks) == 1
    return stream


def gated_config(out_of_order, engine="reference"):
    return SimConfig(out_of_order=out_of_order, mem_units=2,
                     issue_width=4, engine=engine)


def drive_tick(machine):
    """Run ``_tick`` until every task retires.

    Returns the cycle count and, per (cycle, PU) at which memory ops
    left the PU's window, the window's memory ops before the tick and
    the ones that left, in window order.
    """
    is_mem = machine.state.is_mem
    n_tasks = len(machine.stream.tasks)
    departures = []
    cycle = 0
    while machine.retire_seq < n_tasks:
        before = [
            (pu.seq, [idx for idx in pu.unissued if is_mem[idx]])
            for pu in machine.pus
        ]
        machine._tick(cycle)
        for pu, (seq, window) in zip(machine.pus, before):
            if seq < 0 or pu.seq != seq:
                continue
            still = set(pu.unissued)
            left = [idx for idx in window if idx not in still]
            if left:
                departures.append((cycle, pu.index, window, left))
        cycle += 1
    return cycle, departures


def _identity(result):
    return (
        result.cycles, result.breakdown.as_dict(), result.memory_squashes,
        result.control_squashes, result.squash_depths, result.pu_useful,
        result.pu_occupied, result.cache_stats,
    )


@pytest.mark.parametrize("out_of_order", [True, False],
                         ids=["ooo", "in-order"])
def test_memory_ops_leave_the_window_in_program_order(out_of_order):
    stream = gated_stream()
    machine = MultiscalarMachine(stream, gated_config(out_of_order))
    cycles, departures = drive_tick(machine)

    state = machine.state
    mem_ops = [i for i in range(len(stream.trace)) if state.is_mem[i]]
    load, store, second_load = mem_ops
    divide = state.producers[load][0]
    assert state.is_store[store] and state.is_load[second_load]

    # At most one per PU per cycle, always the oldest unissued one.
    for _cycle, _pu, window, left in departures:
        assert left == window[:1]
    order = [left[0] for _, _, _, left in departures]
    assert order == mem_ops
    cycle_of = {left[0]: cycle for cycle, _, _, left in departures}
    # The load issues the cycle its address arrives; the store, already
    # in the window behind it, and the second load follow one a cycle.
    assert cycle_of[load] == state.complete[divide]
    load_window = next(w for c, _, w, _ in departures if c == cycle_of[load])
    assert load_window == mem_ops
    assert cycle_of[store] == cycle_of[load] + 1
    assert cycle_of[second_load] == cycle_of[store] + 1

    # The kernel agrees with the hand-driven loop and a reference run.
    results = {
        engine: MultiscalarMachine(
            stream, gated_config(out_of_order, engine)
        ).run()
        for engine in ("fast", "reference")
    }
    assert _identity(results["fast"]) == _identity(results["reference"])
    assert _identity(machine._result(cycles)) == _identity(results["fast"])
