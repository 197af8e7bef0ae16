"""The columnar trace, and the readers that walk its block entries.

The interpreter records a trace as columns (block entries, memory
addresses, branch outcomes), the profiler and the stream cut walk
block entries, and the stream cut emits the native loop's task table.
This module keeps the per-instruction profiler and stream cut they
replaced, reading the trace's ``DynInst`` view, as references.
``tests/test_trace_sharing.py`` runs :func:`assert_columns_match_reference`
and :func:`assert_replays_cleanly` on every benchmark and level; the
tests here cover the synthetic presets, hand programs (recursion, a
register read twice, empty blocks, an empty call continuation), a
fast cell that must build no per-instruction or per-task object, and
what a pickled compilation carries.
"""

import pickle
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import pytest

from repro.compiler import HeuristicLevel, SelectionConfig, select_tasks
from repro.compiler.task import Target, TargetKind, Task
from repro.experiments import runner
from repro.harness.serialize import record_to_dict
from repro.ir.asmtext import parse_program
from repro.ir.block import BlockId
from repro.ir.instructions import Opcode
from repro.ir.interp import DynInst, Trace, run_program
from repro.profiling import Profile, profile_trace
from repro.reliability import InvariantMonitor
from repro.reliability.oracle import (
    check_commit_log,
    compare_states,
    replay_commits,
    sequential_reference,
)
from repro.sim import SimConfig, build_task_stream, native, simulate
from repro.sim.machine import MultiscalarMachine
from repro.sim.taskstream import (
    K_CALL,
    K_NONE,
    K_OTHER,
    K_RETURN,
    T_COLS,
    DynTask,
    TaskStreamError,
)
from repro.synth.generator import generate_program
from repro.synth.params import PRESETS

LEVELS = list(HeuristicLevel)


# ------------------------------------------------------------ references


def reference_profile(trace: Trace) -> Profile:
    """The profile by one pass per instruction (and per open frame)."""
    profile = Profile()
    block_counts: Dict[BlockId, int] = defaultdict(int)
    edge_counts: Dict[Tuple[BlockId, BlockId], int] = defaultdict(int)
    defuse_counts: Dict[tuple, int] = defaultdict(int)
    call_counts: Dict[str, int] = defaultdict(int)
    call_cycles: Dict[str, int] = defaultdict(int)

    insts = trace.insts
    call_block_stack: List[BlockId] = []
    prev_block: Optional[BlockId] = None
    for start_idx, block in trace.block_entries:
        block_counts[block] += 1
        if start_idx > 0:
            last = _last_inst_before(trace, start_idx, prev_block)
            if last is not None and last.op is Opcode.CALL:
                call_block_stack.append(last.block)
            elif last is not None and last.op is Opcode.RET:
                if call_block_stack:
                    caller_block = call_block_stack.pop()
                    edge_counts[(caller_block, block)] += 1
            elif prev_block is not None and prev_block[0] == block[0]:
                edge_counts[(prev_block, block)] += 1
        prev_block = block

    main_name = trace.program.main_name
    call_counts[main_name] = 1
    open_frames: List[str] = [main_name]
    for dyn in insts:
        for fname in open_frames:
            call_cycles[fname] += 1
        if dyn.op is Opcode.CALL:
            call_counts[dyn.callee] += 1
            open_frames.append(dyn.callee)
        elif dyn.op is Opcode.RET and len(open_frames) > 1:
            open_frames.pop()

    last_writer: Dict[str, Tuple[str, str, int]] = {}
    for dyn in insts:
        func_name, label = dyn.block
        for reg in dyn.reads:
            writer = last_writer.get(reg)
            if writer is not None and writer[0] == func_name:
                defuse_counts[
                    (func_name, writer[1], writer[2], label, dyn.iidx, reg)
                ] += 1
        if dyn.write is not None:
            last_writer[dyn.write] = (func_name, label, dyn.iidx)

    profile.block_counts = dict(block_counts)
    profile.edge_counts = dict(edge_counts)
    profile.defuse_counts = dict(defuse_counts)
    profile.call_counts = dict(call_counts)
    profile.call_cycles = dict(call_cycles)
    profile.total_instructions = len(insts)
    return profile


def _last_inst_before(trace: Trace, start: int,
                      prev_block: Optional[BlockId]) -> Optional[DynInst]:
    """The instruction that ended the previous block entry: none when
    that block was empty (it fell through), even though the trace has
    an instruction at ``start - 1`` from an earlier entry."""
    if prev_block is None or not trace.program.block(prev_block).instructions:
        return None
    return trace.insts[start - 1]


def reference_stream(trace: Trace, partition) -> Tuple[List[DynTask],
                                                       bytearray]:
    """The dynamic tasks and absorbed flags by a walk that reads the
    instruction ending each block entry."""
    entries = trace.block_entries
    insts = trace.insts
    absorbed = bytearray(len(insts))
    tasks: List[DynTask] = []
    if not entries:
        return tasks, absorbed
    cur_task = partition.task_at(entries[0][1])
    cur_start = 0
    cur_block = entries[0][1]
    depth = 0

    def close(end: int, target: Target, next_root: Optional[BlockId]):
        nonlocal cur_task, cur_start, cur_block
        if target not in cur_task.targets:
            raise TaskStreamError(f"{target} not in {cur_task.targets}")
        tasks.append(DynTask(
            seq=len(tasks), task=cur_task, start=cur_start, end=end,
            target=target, target_index=cur_task.targets.index(target),
            next_root=next_root,
        ))
        cur_start = end
        if next_root is not None:
            cur_task = partition.task_at(next_root)
            cur_block = next_root

    n_entries = len(entries)
    for k in range(1, n_entries):
        s, block = entries[k]
        span_end = entries[k + 1][0] if k + 1 < n_entries else len(insts)
        last = _last_inst_before(trace, s, entries[k - 1][1])
        op = last.op if last is not None else None
        if depth > 0:
            if op is Opcode.CALL:
                depth += 1
            elif op is Opcode.RET:
                depth -= 1
                if depth == 0:
                    if not cur_task.is_internal(cur_block, block):
                        close(s, Target(TargetKind.BLOCK, block), block)
                    else:
                        cur_block = block
            if depth > 0:
                absorbed[s:span_end] = b"\x01" * (span_end - s)
            continue
        if op is Opcode.CALL:
            if last.block in cur_task.absorbed_calls:
                depth = 1
                absorbed[s:span_end] = b"\x01" * (span_end - s)
            else:
                close(s, Target(TargetKind.CALL, block), block)
        elif op is Opcode.RET:
            close(s, Target(TargetKind.RETURN), block)
        elif cur_task.is_internal(cur_block, block):
            cur_block = block
        else:
            close(s, Target(TargetKind.BLOCK, block), block)

    target = (Target(TargetKind.HALT) if insts[-1].op is Opcode.HALT
              else None)
    tasks.append(DynTask(
        seq=len(tasks), task=cur_task, start=cur_start, end=len(insts),
        target=target,
        target_index=-1 if target is None else cur_task.targets.index(target),
        next_root=None,
    ))
    return tasks, absorbed


def reference_rows(trace: Trace, partition, tasks: List[DynTask]) -> List:
    """The task table the kernel reads, one tuple per dynamic task,
    with root ids decoded to root blocks."""
    program = partition.program
    kinds = {TargetKind.CALL: K_CALL, TargetKind.RETURN: K_RETURN}
    rows = []
    for dyn in tasks:
        kind = (K_NONE if dyn.target is None
                else kinds.get(dyn.target.kind, K_OTHER))
        cont = None
        if kind == K_CALL:
            call = trace.insts[dyn.end - 1]
            cont = (call.block[0], program.block(call.block).fallthrough)
        rows.append((dyn.start, dyn.end, program.block_pc(dyn.task.root),
                     dyn.target_index, kind, dyn.next_root, cont))
    return rows


def decoded_rows(stream) -> List:
    """``stream``'s task table with root ids decoded to root blocks."""
    table, roots = stream.table, stream.roots

    def root(rid):
        return None if rid < 0 else roots[rid]

    return [
        (*table[row:row + 5], root(table[row + 5]), root(table[row + 6]))
        for row in range(0, len(table), T_COLS)
    ]


def assert_columns_match_reference(trace: Trace, partition,
                                   stream=None) -> None:
    """The block-entry profile, the stream cut's tasks and absorbed
    flags, and the kernel's task table equal the references."""
    assert vars(profile_trace(trace)) == vars(reference_profile(trace))
    if stream is None:
        stream = build_task_stream(trace, partition)
    tasks, absorbed = reference_stream(trace, partition)
    assert len(stream.tasks) == len(tasks)
    assert list(stream.tasks) == tasks
    assert all(got.task is want.task for got, want in zip(stream.tasks, tasks))
    assert stream.absorbed_flags == absorbed
    assert decoded_rows(stream) == reference_rows(trace, partition, tasks)
    assert len(set(stream.roots)) == len(stream.roots)
    assert stream.roots[0] == trace.block_entries[0][1]


def assert_replays_cleanly(program, trace: Trace) -> None:
    """Re-executing the whole trace with fresh semantics agrees with
    the view's addresses and branch outcomes, and ends in the
    sequential run's state."""
    state, divergences = replay_commits(program, trace, [(0, 0, len(trace))])
    assert divergences == []
    _, reference = sequential_reference(program)
    assert compare_states(reference, state) == []


# ------------------------------------------------------------- programs

#: recursion, registers read twice by one instruction (upward-exposed
#: in ``back``, internal in ``after``) and an empty block
_RECURSIVE = """
.func main
entry:
    li      r4, #5
    li      r8, #0
    call    @rec, @after
after:
    add     r9, r2, r2
    mul     r10, r9, r9
    store   r10, [r8 + 100]
empty:
tail:
    mul     r3, r9, r10
    store   r3, [r8 + 101]
    halt
.func rec
top:
    beqz    r4, @base, @step
step:
    sub     r4, r4, #1
    add     r8, r8, r4
    call    @rec, @back
back:
    add     r2, r2, r2
    add     r2, r2, r8
    ret
base:
    li      r2, #1
    ret
"""

#: a call whose continuation is an empty block falling through
_EMPTY_CONTINUATION = """
.func main
entry:
    li      r2, #3
    li      r4, #40
loop:
    store   r2, [r4 + 0]
    call    @bump, @back
back:
after:
    load    r5, [r4 + 0]
    add     r5, r5, r2
    store   r5, [r4 + 1]
    sub     r2, r2, #1
    bnez    r2, @loop, @done
done:
    halt
.func bump
start:
    load    r6, [r4 + 1]
    add     r6, r6, #1
    store   r6, [r4 + 1]
    ret
"""


def _cut(program, level):
    partition = select_tasks(program, SelectionConfig(level=level))
    trace = run_program(partition.program)
    return partition, trace


# ---------------------------------------------------------------- tests


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "preset", ["default", "chains", "diamonds", "loops", "calls", "memory"]
)
def test_synth_presets_match_reference(preset, seed):
    program = generate_program(seed, PRESETS[preset])
    for level in LEVELS:
        partition, trace = _cut(program, level)
        assert_columns_match_reference(trace, partition)


@pytest.mark.parametrize("level", LEVELS, ids=lambda level: level.value)
def test_hand_program_matches_reference(level):
    partition, trace = _cut(parse_program(_RECURSIVE), level)
    assert_columns_match_reference(trace, partition)
    assert_replays_cleanly(partition.program, trace)


def test_hand_program_profile():
    profile = profile_trace(run_program(parse_program(_RECURSIVE)))
    defuse = profile.defuse_counts
    # rec recurses five deep; r4 counts down 5..0.
    assert profile.call_counts == {"main": 1, "rec": 6}
    # A frame spans its callees; main spans the whole trace.
    assert profile.call_cycles["main"] == profile.total_instructions
    # A frame at depth k runs top, step and back around the frame
    # below (7 instructions) and base at the bottom (3).
    assert profile.call_cycles["rec"] == sum(7 * k + 3 for k in range(6))
    # ``add r2, r2, r2`` opens ``back``: both reads are upward-exposed
    # and count, against base's ``li`` once and ``back``'s own last
    # write (one frame deeper) four times.
    assert defuse[("rec", "base", 0, "back", 0, "r2")] == 2
    assert defuse[("rec", "back", 1, "back", 0, "r2")] == 8
    assert defuse[("rec", "back", 0, "back", 1, "r2")] == 5
    # ``mul r10, r9, r9``: a pair inside the block, read twice.
    assert defuse[("main", "after", 0, "after", 1, "r9")] == 2
    # ``add r9, r2, r2`` reads a register rec wrote: no pair.
    assert not [key for key in defuse if key[3:5] == ("after", 0)]
    # Across the empty block.
    assert defuse[("main", "after", 0, "tail", 0, "r9")] == 1
    assert defuse[("main", "after", 1, "tail", 0, "r10")] == 1
    assert profile.edge_count(("main", "after"), ("main", "empty")) == 1
    assert profile.edge_count(("main", "empty"), ("main", "tail")) == 1


@pytest.mark.parametrize("level", LEVELS, ids=lambda level: level.value)
def test_empty_call_continuation(level):
    """A call continuing into an empty block: the entry after that
    block is classified by the empty block (a fall-through), not by
    the callee's RET, the last instruction before it."""
    program = parse_program(_EMPTY_CONTINUATION)
    partition, trace = _cut(program, level)
    stream = build_task_stream(trace, partition)
    assert_columns_match_reference(trace, partition, stream)

    # TASK_SIZE unrolls the loop into back#u1 -> after#u1 and so on.
    edges = profile_trace(trace).edge_counts
    assert sum(
        count for (src, dst), count in edges.items()
        if src[1].startswith("back") and dst[1].startswith("after")
    ) == 3

    results = [simulate(stream, SimConfig(engine=engine).scaled_for_pus(2))
               for engine in ("fast", "reference")]
    assert results[0] == results[1]

    monitor = InvariantMonitor()
    MultiscalarMachine(stream, SimConfig().scaled_for_pus(2),
                       monitor=monitor).run()
    assert check_commit_log(monitor.commit_log, len(trace)) == []
    state, divergences = replay_commits(partition.program, trace,
                                        monitor.commit_log)
    assert divergences == []
    _, reference = sequential_reference(partition.program)
    assert compare_states(reference, state) == []


def _refuse(*args, **kwargs):
    raise AssertionError("built a per-instruction or per-task object")


def run_benchmark_record(name, level, engine="fast"):
    return record_to_dict(runner.run_benchmark(
        name, level, scale=0.1, sim=SimConfig(engine=engine)
    ))


def test_fast_cell_builds_no_instruction_or_task_objects(monkeypatch):
    """A cold, unmonitored fast cell reads only columns and the task
    table, and its record equals the reference engine's."""
    assert native.kernel() is not None
    level = HeuristicLevel.TASK_SIZE
    runner.clear_cache()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(DynInst, "__init__", _refuse)
            patch.setattr(DynTask, "__init__", _refuse)
            fast = run_benchmark_record("compress", level)
        compiled = runner.compile_benchmark("compress", level, scale=0.1)
        assert compiled.trace._insts is None
        assert compiled.stream._dyn_list is None
        reference = run_benchmark_record("compress", level,
                                         engine="reference")
        assert compiled.stream._dyn_list is not None
        assert fast == reference
    finally:
        runner.clear_cache()


def test_pickled_compilation_holds_only_columns():
    """After a reference run has built the instruction view, the
    packing and the task view, a pickled compilation carries none of
    them, and reproduces both engines' records."""
    level = HeuristicLevel.CONTROL_FLOW
    runner.clear_cache()
    try:
        records = {engine: run_benchmark_record("compress", level, engine)
                   for engine in ("reference", "fast")}
        compiled = runner.compile_benchmark("compress", level, scale=0.1)
        built = (compiled.trace._insts, compiled.trace.arrays,
                 compiled.stream._dyn_list, compiled.stream._packed)
        assert all(part is not None for part in built)

        restored = pickle.loads(pickle.dumps(compiled))
        assert restored.trace._insts is None
        assert restored.trace.arrays is None
        assert restored.stream._dyn_list is None
        assert restored.stream._packed is None
        assert restored.stream.trace is restored.trace
        # Pickling leaves the live compilation as it was.
        assert compiled.trace._insts is built[0]
        assert compiled.stream._packed is built[3]

        runner.clear_cache()
        key = runner.compile_cache_key("compress", level, scale=0.1)
        runner.seed_compiled(key, restored)
        for engine, record in records.items():
            assert run_benchmark_record("compress", level, engine) == record
    finally:
        runner.clear_cache()


def test_trace_columns_answer_counts_without_the_view():
    program = parse_program(_RECURSIVE)
    trace = run_program(program)
    n = len(trace)
    transfers = trace.control_transfer_count()
    assert trace._insts is None
    assert n == len(trace.insts)
    assert transfers == sum(d.op.is_control for d in trace)


def test_task_view_is_lazy_and_sized_by_the_table():
    program = parse_program(_RECURSIVE)
    partition, trace = _cut(program, HeuristicLevel.BASIC_BLOCK)
    stream = build_task_stream(trace, partition)
    rows = len(stream.table) // T_COLS
    assert len(stream.tasks) == rows == len(stream)
    assert list(stream.task_lengths()) == [
        stream.table[row + 1] - stream.table[row]
        for row in range(0, len(stream.table), T_COLS)
    ]
    assert stream._dyn_list is None
    assert stream.tasks[-1].end == len(trace)
    assert isinstance(stream.tasks[0].task, Task)
