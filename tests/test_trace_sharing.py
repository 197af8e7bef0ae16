"""Functional runs are shared across task selections, and sharing is exact.

Compiles whose transforms yield the same program take their trace,
profile, analysis and trace-only packed arrays from one
:class:`~repro.compiler.partition.TraceMemo` entry, and compiles of one
benchmark share its source build (DESIGN.md §7).  The analysis's
codependent sets are checked against the per-edge search on every
cross-block def-use edge, and partitions compiled through one shared
cache against partitions compiled cold, one at a time.
These tests pin that the shared products equal what a fresh run of
the reference ``Interpreter`` on ``compiled.partition.program``
produces (the compiled trace is the native interpreter's whenever the
kernel loads), that sharing happens exactly where the transformed
programs coincide, and that ``clear_cache`` drops it.  On every one of
these streams, the release flags, which analyse each (task, block)
once and are copied into every block entry by the kernel (or, without
it, by a Python walk), are also checked against one analysis call per
dynamic write, and the kernel's lowering of the trace against the
Python packing; the profile, the task stream and the kernel's task
table are checked against the per-instruction references of
``tests/test_columnar.py``, and the trace against a full-semantics
re-execution.
"""

from dataclasses import replace
from unittest import mock

import pytest

from repro.compiler import HeuristicLevel, SelectionConfig, partition
from repro.compiler.export import partition_to_json
from repro.compiler.partition import TraceMemo, select_tasks
from repro.compiler.strategy import get_strategy
from repro.compiler.transforms import clone_program
from repro.experiments import runner
from repro.ir import analysis as ir_analysis
from repro.ir.analysis import FunctionAnalysis
from repro.ir.cfg import build_cfg
from repro.ir.dataflow import codependent_set, def_use_chains
from repro.ir.interp import Interpreter
from repro.sim import build_task_stream, native
from repro.sim.config import ForwardPolicy
from repro.sim.taskstream import _release_flags
from repro.workloads import all_benchmarks, get_benchmark
from repro.workloads.registry import Benchmark
from tests.test_columnar import (
    assert_columns_match_reference,
    assert_replays_cleanly,
)
from tests.test_corpus import CORPUS, _load
from tests.test_native import assert_lowering_matches_packing

SCALE = 0.1
LEVELS = list(HeuristicLevel)
NAMES = [b.name for b in all_benchmarks()]
CF = HeuristicLevel.CONTROL_FLOW
DD = HeuristicLevel.DATA_DEPENDENCE
TS = HeuristicLevel.TASK_SIZE

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


#: the paper levels, the cost model, and tunable genomes that differ
#: from the paper's task_size genome in one gene each: growth genes
#: (traversal, N, the dependence cap) keep the transformed program,
#: the unrolling threshold changes it
SHARED_SELECTIONS = [SelectionConfig(level=level) for level in LEVELS] + [
    SelectionConfig(level=DD, strategy="cost_model"),
    SelectionConfig(level=TS, strategy="tunable", traversal="dfs"),
    SelectionConfig(level=TS, strategy="tunable", max_targets=2),
    SelectionConfig(level=TS, strategy="tunable", loop_thresh=10),
    SelectionConfig(level=TS, strategy="tunable", loop_thresh=60),
    SelectionConfig(level=TS, strategy="tunable", max_dependences=2),
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
        Interpreter(compiled.partition.program).run(), compiled.partition
    )
    assert _dyn_fields(compiled.trace) == _dyn_fields(fresh.trace)
    got, want = compiled.stream.packed, fresh.packed
    assert got.arrays is not want.arrays
    assert vars(got.arrays) == vars(want.arrays)
    for name in ("n", "task_seq", "has_remote_consumer"):
        assert getattr(got, name) == getattr(want, name), name
    for policy in ForwardPolicy:
        assert got.release_now(policy, compiled.release) == want.release_now(
            policy, compiled.release
        ), policy
    reference = _reference_release(compiled.stream, compiled.release)
    assert compiled.stream.schedule_release(compiled.release) == reference
    with mock.patch.object(native, "_kernel", False):
        assert _release_flags(compiled.stream, compiled.release) == reference
    assert_lowering_matches_packing(compiled.stream)
    assert_columns_match_reference(
        compiled.trace, compiled.partition, compiled.stream
    )
    assert_replays_cleanly(compiled.partition.program, compiled.trace)
    # The per-block-entry counts records take from the trace.
    assert compiled.trace.control_transfer_count() == sum(
        d.op.is_control for d in fresh.trace
    )
    assert compiled.trace.conditional_branch_count() == sum(
        d.op.is_branch for d in fresh.trace
    )


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
        Interpreter(profiled.partition.program).run()
    )
    # Measuring rewrote no memoized program: the train run, memoized
    # while selecting for ``profiled``, still records the train data.
    assert train.trace.program.memory_image == (
        train.partition.program.memory_image
    )
    assert train.trace.program.memory_image != (
        ref.partition.program.memory_image
    )


def test_memo_renders_each_program_object_once(monkeypatch):
    """A second request for the same program object takes its digest
    from the memo; a distinct object with equal text is rendered, and
    shares the trace."""
    rendered = []
    real = partition.program_to_text

    def counting(program):
        rendered.append(program)
        return real(program)

    monkeypatch.setattr(partition, "program_to_text", counting)
    memo = TraceMemo()
    program = get_benchmark("compress").build(SCALE)
    trace = memo.trace(program)
    memo.profile(program)
    assert memo.trace(program) is trace
    assert rendered == [program]
    twin = clone_program(program)
    assert memo.trace(twin) is trace
    assert rendered == [program, twin]


def test_memo_analysis_never_interprets(monkeypatch):
    runs = _counting(monkeypatch, partition, "run_program")
    rendered = _counting(monkeypatch, partition, "program_to_text")
    memo = TraceMemo()
    program = get_benchmark("compress").build(SCALE)
    analysis = memo.analysis(program)
    assert runs == []
    assert memo.analysis(program) is analysis
    assert memo.analysis(clone_program(program)) is analysis
    memo.trace(program)
    assert len(runs) == 1
    # One render per program object, shared by the analysis and trace.
    assert len(rendered) == 2


def test_selection_without_a_memo_digests_only_to_profile(monkeypatch):
    rendered = _counting(monkeypatch, partition, "program_to_text")
    program = get_benchmark("compress").build(SCALE)
    for level in (HeuristicLevel.BASIC_BLOCK, CF):
        select_tasks(program, SelectionConfig(level=level))
    assert rendered == []
    select_tasks(program, SelectionConfig(level=DD))
    assert len(rendered) == 1


def _counting(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper; return the list of calls."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _transformed(program, config):
    prog = clone_program(program)
    get_strategy(config).transform(prog, config)
    return prog


def _compare_codependent_sets(program) -> int:
    """Check the analysis's codependent set of every cross-block
    def-use edge against the per-edge search; return the edge count."""
    compared = 0
    for function in program.functions():
        analysis = FunctionAnalysis(function)
        cfg = build_cfg(function)
        for edge in def_use_chains(function, cfg):
            if edge.crosses_blocks:
                assert analysis.codependent(edge) == codependent_set(
                    cfg, edge
                ), (function.name, edge)
                compared += 1
    return compared


@pytest.mark.parametrize("name", NAMES)
def test_codependent_sets_equal_the_per_edge_search(name):
    source = get_benchmark(name).build(SCALE)
    for level in LEVELS:
        program = _transformed(source, SelectionConfig(level=level))
        assert _compare_codependent_sets(program) > 0, level


def test_corpus_codependent_sets_equal_the_per_edge_search():
    compared = 0
    for path in CORPUS:
        for level in LEVELS:
            compared += _compare_codependent_sets(
                _transformed(_load(path), SelectionConfig(level=level))
            )
    assert compared > 0


@pytest.mark.parametrize("name", NAMES)
def test_shared_compiles_equal_cold_ones(name):
    """Builds, analyses and runs shared across a benchmark's
    selections change no partition."""

    def compile_json(selection):
        return partition_to_json(runner.compile_benchmark(
            name, selection.level, scale=SCALE, selection=selection
        ).partition)

    shared = [compile_json(s) for s in SHARED_SELECTIONS]
    cold = []
    for selection in SHARED_SELECTIONS:
        runner.clear_cache()
        cold.append(compile_json(selection))
    assert shared == cold


def test_seen_program_is_not_analysed_again(monkeypatch):
    cfgs = _counting(monkeypatch, ir_analysis, "build_cfg")
    chains = _counting(monkeypatch, ir_analysis, "def_use_chains")
    searches = _counting(
        monkeypatch, ir_analysis.FunctionAnalysis, "codependent"
    )
    genome = SelectionConfig(level=TS, strategy="tunable")
    compiled = runner.compile_benchmark(
        "go", TS, scale=SCALE, selection=genome
    )
    functions = len(list(compiled.partition.program.functions()))
    assert len(cfgs) == len(chains) == functions
    assert searches
    # Growth genes keep the transformed program: no CFG, chain or
    # codependent set is computed again.
    del cfgs[:], chains[:], searches[:]
    for change in ({"max_targets": 2}, {"traversal": "dfs"},
                   {"max_dependences": 2}):
        runner.compile_benchmark(
            "go", TS, scale=SCALE, selection=replace(genome, **change)
        )
    assert (cfgs, chains, searches) == ([], [], [])
    # CF and DD run the same transforms: DD ranks on CF's CFGs.
    runner.compile_benchmark("go", CF, scale=SCALE)
    assert len(cfgs) == functions
    runner.compile_benchmark("go", DD, scale=SCALE)
    assert len(cfgs) == functions
    assert len(chains) == functions
    # clear_cache drops the analyses.
    runner.clear_cache()
    runner.compile_benchmark("go", CF, scale=SCALE)
    assert len(cfgs) == 2 * functions


def test_each_benchmark_input_is_built_once(monkeypatch):
    builds = _counting(monkeypatch, Benchmark, "build")
    for level in LEVELS:
        runner.compile_benchmark("compress", level, scale=SCALE)
    assert [args[1:] for args in builds] == [(SCALE,)]
    # A train-profiled compile builds the train input, and takes the
    # measured memory image from the ref build already made.
    for level in (CF, TS):
        runner.compile_benchmark(
            "compress", level, scale=SCALE, profile_input="train"
        )
    assert len(builds) == 2
    runner.compile_benchmark("compress", CF, scale=2 * SCALE)
    assert len(builds) == 3
    # clear_cache drops the builds.
    runner.clear_cache()
    runner.compile_benchmark("compress", CF, scale=SCALE)
    assert len(builds) == 4
