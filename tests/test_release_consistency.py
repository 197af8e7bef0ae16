"""Cross-validation: static release analysis vs dynamic truth.

A write flagged as a *release point* (the compiler proved no later
in-task redefinition is possible on any path) must never be followed,
in the actual dynamic trace, by another write to the same register
within the same dynamic task instance.  This pins the static analysis
against ground truth across real benchmarks and all heuristic levels.
"""

import pytest

from repro.compiler import (
    HeuristicLevel,
    SelectionConfig,
    Target,
    TargetKind,
    TaskPartition,
    select_tasks,
)
from repro.compiler.regcomm import ReleaseAnalysis
from repro.ir.asmtext import parse_program
from repro.ir.interp import run_program
from repro.sim import SimConfig, build_task_stream
from repro.sim.config import ForwardPolicy
from repro.sim.runstate import RunState
from repro.workloads import get_benchmark

BENCHES = ["compress", "li", "m88ksim", "tomcatv", "fpppp"]
LEVELS = [
    HeuristicLevel.CONTROL_FLOW,
    HeuristicLevel.DATA_DEPENDENCE,
    HeuristicLevel.TASK_SIZE,
]


@pytest.mark.parametrize("name", BENCHES)
@pytest.mark.parametrize("level", LEVELS)
def test_release_points_never_contradicted_dynamically(name, level):
    part = select_tasks(
        get_benchmark(name).build(0.15), SelectionConfig(level=level)
    )
    trace = run_program(part.program)
    stream = build_task_stream(trace, part)
    state = RunState(
        stream, SimConfig(forward_policy=ForwardPolicy.SCHEDULE)
    )
    violations = []
    for dyn_task in stream:
        last_writer = {}
        for i in range(dyn_task.start, dyn_task.end):
            write = trace[i].write
            if write is None:
                continue
            prev = last_writer.get(write)
            if prev is not None and state.release_now[prev]:
                violations.append((dyn_task.seq, prev, i, write))
            last_writer[write] = i
    assert not violations, (
        f"{len(violations)} release-point writes were dynamically "
        f"overwritten in-task, e.g. {violations[:3]}"
    )


@pytest.mark.parametrize("name", ["compress", "tomcatv"])
def test_schedule_policy_releases_most_last_writers(name):
    """The analysis should not be uselessly conservative either: most
    dynamic last-writes of inter-task consumed values forward at
    completion rather than waiting for the release lag."""
    part = select_tasks(
        get_benchmark(name).build(0.15),
        SelectionConfig(level=HeuristicLevel.CONTROL_FLOW),
    )
    trace = run_program(part.program)
    stream = build_task_stream(trace, part)
    state = RunState(stream, SimConfig())
    remote_producers = [
        i for i in range(len(trace))
        if state.has_remote_consumer[i] and not stream.absorbed_flags[i]
    ]
    if not remote_producers:
        pytest.skip("no inter-task register traffic")
    released = sum(1 for i in remote_producers if state.release_now[i])
    assert released / len(remote_producers) > 0.5


#: ``a`` is replicated: internal to the task rooted at ``entry`` (where
#: nothing after it redefines r1) and the root of a task that also
#: holds ``b`` (which does)
_OVERLAP = """
.func main
entry:
    li      r2, #3
    jump    @a
a:
    li      r1, #1
    jump    @b
b:
    li      r1, #2
    sub     r2, r2, #1
    bnez    r2, @a, @done
done:
    halt
"""


def test_release_flags_depend_on_the_task_as_well_as_the_position():
    """The per-stream flags analyse each (task, block, instruction)
    once; one block's write must still get each task's own answer."""
    program = parse_program(_OVERLAP)
    entry, a, b, done = (("main", x) for x in ("entry", "a", "b", "done"))
    to_a, to_b = Target(TargetKind.BLOCK, a), Target(TargetKind.BLOCK, b)
    to_done = Target(TargetKind.BLOCK, done)
    part = TaskPartition(program)
    part.new_task("main", entry, {entry, a}, {(entry, a)}, [to_b])
    part.new_task("main", a, {a, b}, {(a, b)}, [to_a, to_done])
    part.new_task("main", b, {b}, set(), [to_a, to_done])
    part.new_task("main", done, {done}, set(), [Target(TargetKind.HALT)])
    trace = run_program(program)
    stream = build_task_stream(trace, part)
    release = ReleaseAnalysis(part)
    flags = stream.packed.release_now(ForwardPolicy.SCHEDULE, release)

    by_task = {}
    for dyn_task in stream:
        for i in range(dyn_task.start, dyn_task.end):
            dyn = trace[i]
            if dyn.write is not None:
                expected = release.is_release(
                    dyn_task.task, dyn.block, dyn.iidx, dyn.write
                )
                assert flags[i] == expected, (dyn_task.task.root, i)
                if dyn.block == a:
                    by_task.setdefault(dyn_task.task.root, set()).add(
                        flags[i]
                    )
    assert by_task == {entry: {1}, a: {0}}
