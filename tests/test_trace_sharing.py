"""Functional runs are shared across task selections, and sharing is exact.

Compiles whose transforms yield the same program take their trace,
profile and trace-only packed arrays from one
:class:`~repro.compiler.partition.TraceMemo` entry (DESIGN.md §7).
These tests pin that the shared products equal what a fresh
interpretation of ``compiled.partition.program`` produces, that
sharing happens exactly where the transformed programs coincide, and
that ``clear_cache`` drops it.  The release flags, which analyse each
static position once, are also checked against one analysis call per
dynamic write.
"""

import pytest

from repro.compiler import HeuristicLevel, SelectionConfig
from repro.experiments import runner
from repro.ir.interp import run_program
from repro.sim import build_task_stream
from repro.sim.config import ForwardPolicy
from repro.workloads import all_benchmarks

SCALE = 0.1
LEVELS = list(HeuristicLevel)

#: non-paper selections: the cost model, and two task-size genomes
#: whose unrolling thresholds differ
EXTRA_SELECTIONS = [
    ("compress", SelectionConfig(level=HeuristicLevel.DATA_DEPENDENCE,
                                 strategy="cost_model")),
    ("tomcatv", SelectionConfig(level=HeuristicLevel.TASK_SIZE,
                                strategy="tunable", loop_thresh=10)),
    ("tomcatv", SelectionConfig(level=HeuristicLevel.TASK_SIZE,
                                strategy="tunable", loop_thresh=60)),
]


@pytest.fixture(autouse=True)
def _cold_compile_cache():
    runner.clear_cache()
    yield
    runner.clear_cache()


def _dyn_fields(trace):
    return (
        [
            (d.index, d.block, d.iidx, d.op, d.pc, d.reads, d.write,
             d.addr, d.taken, d.callee)
            for d in trace.insts
        ],
        trace.block_entries,
    )


def _reference_release(stream, release):
    """SCHEDULE release flags by one analysis call per dynamic write."""
    flags = bytearray(len(stream.trace))
    for dyn_task in stream.tasks:
        task = dyn_task.task
        for i in range(dyn_task.start, dyn_task.end):
            dyn = stream.trace.insts[i]
            if (
                dyn.write is not None
                and not stream.absorbed_flags[i]
                and dyn.block in task.blocks
                and release.is_release(task, dyn.block, dyn.iidx, dyn.write)
            ):
                flags[i] = 1
    return flags


def _assert_matches_fresh_run(compiled):
    fresh = build_task_stream(
        run_program(compiled.partition.program), compiled.partition
    )
    assert _dyn_fields(compiled.trace) == _dyn_fields(fresh.trace)
    got, want = compiled.stream.packed, fresh.packed
    assert got.arrays is not want.arrays
    assert vars(got.arrays) == vars(want.arrays)
    for name in ("n", "task_seq", "has_remote_consumer", "cross_consumer",
                 "consumer_seqs"):
        assert getattr(got, name) == getattr(want, name), name
    for policy in ForwardPolicy:
        assert got.release_now(policy, compiled.release) == want.release_now(
            policy, compiled.release
        ), policy
    assert got.release_now(
        ForwardPolicy.SCHEDULE, compiled.release
    ) == _reference_release(compiled.stream, compiled.release)


@pytest.mark.parametrize("name", [b.name for b in all_benchmarks()])
def test_every_level_matches_a_fresh_run(name):
    for level in LEVELS:
        _assert_matches_fresh_run(
            runner.compile_benchmark(name, level, scale=SCALE)
        )


@pytest.mark.parametrize(
    "name,selection", EXTRA_SELECTIONS,
    ids=["cost_model", "tunable-loop10", "tunable-loop60"],
)
def test_strategy_selections_match_a_fresh_run(name, selection):
    # Compile the paper levels first, so the selection under test can
    # take a trace (and its arrays) another compile built.
    for level in LEVELS:
        runner.compile_benchmark(name, level, scale=SCALE)
    _assert_matches_fresh_run(
        runner.compile_benchmark(
            name, selection.level, scale=SCALE, selection=selection
        )
    )


def test_same_transformed_program_shares_one_trace():
    compiled = {
        level: runner.compile_benchmark("go", level, scale=SCALE)
        for level in LEVELS
    }
    cf = compiled[HeuristicLevel.CONTROL_FLOW]
    dd = compiled[HeuristicLevel.DATA_DEPENDENCE]
    bb = compiled[HeuristicLevel.BASIC_BLOCK]
    assert dd.trace is cf.trace
    assert dd.stream.packed.arrays is cf.stream.packed.arrays
    assert dd.stream is not cf.stream
    assert bb.trace is not cf.trace

    runner.clear_cache()
    again = runner.compile_benchmark(
        "go", HeuristicLevel.CONTROL_FLOW, scale=SCALE
    )
    assert again.trace is not cf.trace
    assert _dyn_fields(again.trace) == _dyn_fields(cf.trace)


def test_train_profile_never_aliases_the_measured_input():
    level = HeuristicLevel.TASK_SIZE
    profiled = runner.compile_benchmark(
        "compress", level, scale=SCALE, profile_input="train"
    )
    train = runner.compile_benchmark(
        "compress", level, scale=SCALE, input_set="train"
    )
    ref = runner.compile_benchmark("compress", level, scale=SCALE)

    # Same code, different memory images: the measured runs differ.
    assert profiled.trace is not train.trace
    assert _dyn_fields(profiled.trace) != _dyn_fields(train.trace)
    # The measured trace is the ref input's, shared with the ref
    # compile, and the partition carries the program that recorded it.
    assert profiled.trace is ref.trace
    assert _dyn_fields(profiled.trace) == _dyn_fields(
        run_program(profiled.partition.program)
    )
    # Measuring rewrote no memoized program: the train run, memoized
    # while selecting for ``profiled``, still records the train data.
    assert train.trace.program.memory_image == (
        train.partition.program.memory_image
    )
    assert train.trace.program.memory_image != (
        ref.partition.program.memory_image
    )
