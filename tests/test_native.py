"""The native cycle loop: build, fallback, lowering, post-run state.

Bit-identity of results and event streams is swept in
``test_fastpath.py``, ``test_machines.py`` and ``test_telemetry.py``;
these tests cover what is particular to the kernel: how it is built
and salted, what happens when it cannot be, that the Python copies of
its layout constants equal the C source's, that its lowering of a
trace equals the Python packing (``tests/test_trace_sharing.py`` runs
that check on every benchmark and level), that a kernel run builds no
Python packing, that a machine reads the same after a kernel run as
after a ``_tick`` run, the scan counters, and hand-built cells in which
a sleeping issue scan must be woken by each of its wake events.
"""

import ast
import operator
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from itertools import accumulate
from pathlib import Path

import pytest

import repro
from repro.compiler import HeuristicLevel, SelectionConfig, select_tasks
from repro.experiments import runner
from repro.experiments.runner import compile_benchmark, run_benchmark
from repro.harness import cache as cache_module
from repro.harness.serialize import record_to_dict
from repro.ir.asmtext import parse_program
from repro.ir.interp import run_program
from repro.machines import get_machine
from repro.predict import GshareTaskPredictor, HybridTaskPredictor
from repro.reliability import verify_workload
from repro.sim import (SimConfig, build_task_stream, native, simulate,
                       taskstream)
from repro.sim.config import ForwardPolicy
from repro.sim.machine import MultiscalarMachine, SimulationStuck
from repro.sim.pu import ProcessingUnit

SMALL = 0.1
SRC = Path(repro.__file__).resolve().parent.parent


def test_code_version_covers_c_sources(tmp_path, monkeypatch):
    """A byte change in a ``.c`` source moves the cache salt."""
    package = tmp_path / "repro"
    package.mkdir()
    (package / "__init__.py").write_text("")
    kernel = package / "kernel.c"
    kernel.write_text("int f(void) { return 1; }\n")
    monkeypatch.setattr(repro, "__file__", str(package / "__init__.py"))

    def digest():
        monkeypatch.setattr(cache_module, "_code_version_cache", None)
        return cache_module.code_version()

    before = digest()
    kernel.write_text("int f(void) { return 2; }\n")
    assert digest() != before


def test_failed_build_warns_once_and_runs_tick(tmp_path, monkeypatch):
    """A missing compiler: one warning naming the error, at the first
    interpretation, then the reference interpreter and the reference
    loop, whose record the fast run reproduces exactly."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(native, "_kernel", None)
    monkeypatch.setattr(native, "COMMAND", ("no-such-cc", "-O2"))
    runner.clear_cache()
    try:
        with pytest.warns(RuntimeWarning, match="no-such-cc") as caught:
            reference = run_benchmark(
                "compress", HeuristicLevel.CONTROL_FLOW, scale=SMALL,
                sim=SimConfig(engine="reference"),
            )
            fast = run_benchmark("compress", HeuristicLevel.CONTROL_FLOW,
                                 scale=SMALL)
            again = run_benchmark("compress", HeuristicLevel.TASK_SIZE,
                                  scale=SMALL)
    finally:
        runner.clear_cache()
    assert len([w for w in caught if w.category is RuntimeWarning]) == 1
    assert native.loop_name() == "python"
    assert record_to_dict(fast) == record_to_dict(reference)
    assert again.cycles > 0
    assert not list(tmp_path.rglob("*.so"))


def test_concurrent_builds_share_one_library(tmp_path):
    """Two processes building into one empty cache root both load the
    kernel, and leave one library and no temp files behind."""
    code = (
        "import sys\n"
        "from repro.sim import native\n"
        "sys.exit(0 if native.kernel() is not None else 1)\n"
    )
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path),
               PYTHONPATH=str(SRC))
    procs = [
        subprocess.Popen([sys.executable, "-W", "error", "-c", code],
                         env=env)
        for _ in range(2)
    ]
    assert [p.wait(timeout=120) for p in procs] == [0, 0]
    left = sorted(p.name for p in (tmp_path / "native").iterdir())
    assert len(left) == 1 and left[0].endswith(".so"), left


# ------------------------------------------------------- the ABI mirror

_C_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
          ast.LShift: operator.lshift}


def _c_value(node, consts):
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    if isinstance(node, ast.Name):
        return consts[node.id]
    if isinstance(node, ast.BinOp) and type(node.op) in _C_OPS:
        return _C_OPS[type(node.op)](_c_value(node.left, consts),
                                     _c_value(node.right, consts))
    raise KeyError(ast.dump(node))


def _c_constants():
    """native.c's enum constants and integer ``#define``s, by name.

    Enumerators count up from 0, or from the value of an explicit
    ``NAME = expression`` (names, integers, ``+``, ``-``, ``<<``;
    integer casts and ``u`` suffixes are dropped)."""
    text = re.sub(r"/\*.*?\*/", " ", native.SOURCE.read_text(), flags=re.S)
    consts = {}

    def value(expr):
        expr = re.sub(r"\((?:i64|i32|u8)\)|(?<=\d)u\b", "", expr.strip())
        return _c_value(ast.parse(expr, mode="eval").body, consts)

    for body in re.findall(r"\benum\s*\{(.*?)\}", text, flags=re.S):
        following = 0
        for item in filter(None, map(str.strip, body.split(","))):
            name, _, expr = item.partition("=")
            if expr:
                following = value(expr)
            consts[name.strip()] = following
            following += 1
    for name, expr in re.findall(r"^#define (\w+) (.+)$", text, flags=re.M):
        try:
            consts[name] = value(expr)
        except (KeyError, SyntaxError):
            pass  # not an integer constant
    return consts


def test_python_mirrors_equal_the_kernel_layouts():
    """Every layout constant native.py and taskstream.py copy from
    native.c equals its C value: each ``_NAME`` int of native.py whose
    NAME the C source defines, taskstream's ``T_*`` / ``K_*``, the
    REASONS slots, the number of scan counters, the trace buffers, the
    predictor and policy codes, the lifecycle record kinds and width
    (``EV_*``) and the parameter counts.  The buffers and parameters
    the wrappers pass by position are checked by the runs of every
    other test."""
    c = _c_constants()
    mirrors = {name[1:]: value for name, value in vars(native).items()
               if name[:1] == "_" and name[1:] in c and type(value) is int}
    mirrors.update((name, value) for name, value in vars(taskstream).items()
                   if re.fullmatch(r"[TK]_[A-Z_]+", name))
    records = {name: value for name, value in vars(native).items()
               if re.fullmatch(r"EV_[A-Z_]+", name)}
    mirrors.update(records)
    assert {name: c[name] for name in mirrors} == mirrors
    assert {"N_BUFS", "N_TRACE_BUFS", "N_LIN", "N_IBUFS", "N_RBUFS",
            "N_IOUT", "N_LOUT", "N_OUT", "O_RETIRE_SEQ", "O_REASONS",
            "O_COUNTERS", "COPY_RAS", "OP_HALT", "IMM_FLOAT",
            "KIND_COND", "IC_TAKEN", "LO_GSHARE_MISPREDICTIONS",
            "T_COLS", "K_OTHER"} <= set(mirrors)
    # Every record kind the kernel defines has its mirror.
    assert set(records) == {name for name in c if name.startswith("EV_")}
    assert sorted(value for name, value in records.items()
                  if name != "EV_WORDS") == list(range(len(records) - 1))

    assert [c["R_" + slot] for slot in native._SLOTS] == list(
        range(c["N_REASONS"]))
    assert len(native.KERNEL_COUNTERS) == c["N_COUNTERS"]
    assert [c["B_" + name.upper()] for name in native.Lowering.FIELDS] == (
        list(range(c["N_TRACE_BUFS"])))
    assert native._POLICY == {
        policy: c["POLICY_" + policy.upper()] for policy in native._POLICY
    }
    assert native._predictor_kind(GshareTaskPredictor()) == c["PRED_GSHARE"]
    assert native._predictor_kind(HybridTaskPredictor()) == c["PRED_HYBRID"]

    partition = select_tasks(parse_program(_FORWARD),
                             SelectionConfig(level=HeuristicLevel.BASIC_BLOCK))
    stream = build_task_stream(run_program(partition.program), partition)
    m = MultiscalarMachine(stream, SimConfig(max_cycles=20_000))
    params = native._params(m)
    assert len(params) == c["N_PARAMS"]
    assert params[c["P_N"]] == len(stream.trace)
    assert params[c["P_N_TASKS"]] == len(stream.tasks)
    assert params[c["P_MAX_CYCLES"]] == 20_000
    assert native._predictor_kind(m.predictor) == c["PRED_PATH"]
    assert len(native._pu_params(m)) == c["PU_PARAMS"] * m.config.n_pus


def _machine_pair(machine="paper-4x2", **sim):
    compiled = compile_benchmark("li", HeuristicLevel.CONTROL_FLOW,
                                 scale=SMALL)
    machines = {}
    for engine in ("fast", "reference"):
        config = replace(get_machine(machine), engine=engine, **sim)
        machines[engine] = MultiscalarMachine(
            compiled.stream, config, compiled.release
        )
    return machines


def _post_run_state(m):
    predictor = m.predictor
    parts = [predictor] + [
        getattr(predictor, name) for name in ("path", "gshare")
        if hasattr(predictor, name)
    ]
    return {
        "cycle": m.cycle,
        "retire_seq": m.retire_seq,
        "next_seq": m.next_seq,
        "next_assign_pu": m.next_assign_pu,
        "resume_cycle": m.resume_cycle,
        "pending_mispredict": m.pending_mispredict,
        "counters": (m.task_predictions, m.task_mispredictions,
                     m.control_squashes, m.memory_squashes),
        "squash_depths": m.squash_depths,
        "pu_of_seq": m.state.pu_of_seq,
        "generation": m.state.generation,
        # A kernel run leaves the kernel's arrays, _tick its lists.
        "complete": list(m.state.complete),
        "forward": list(m.state.forward),
        "caches": m.hierarchy.stats(),
        "predictor": [(p.predictions, p.mispredictions,
                       getattr(p, "history", None)) for p in parts],
        "ras": (list(m.ras._stack), m.ras.overflows),
        "sync_pairs": list(m.sync_pairs),
        "idle_pus": all(pu.idle for pu in m.pus),
        "in_flight": m.in_flight,
    }


@pytest.mark.parametrize("machine,sim", [
    ("paper-4x2", {}),
    ("hetero-16", {}),
    ("paper-4x2", {"sync_table_size": 2}),
], ids=["paper-4", "hetero-16-hybrid", "sync-table-2"])
def test_post_run_state_matches_tick(machine, sim):
    """After a kernel run the machine reads as after a ``_tick`` run."""
    machines = _machine_pair(machine, **sim)
    results = {engine: m.run() for engine, m in machines.items()}
    assert native.kernel() is not None
    fast = _post_run_state(machines["fast"])
    reference = _post_run_state(machines["reference"])
    for key in reference:
        assert fast[key] == reference[key], key
    assert results["fast"].breakdown == results["reference"].breakdown


@pytest.mark.parametrize("machine,sim", [
    ("paper-4x2", {}),
    ("manycore-32", {}),
    ("paper-4x2", {"out_of_order": False}),
], ids=["paper-4", "manycore-32", "paper-4-in-order"])
def test_scan_counters_add_up(machine, sim, monkeypatch):
    """The kernel's PU states cover every PU every cycle, and its issue
    scans plus the visits it skipped asleep are exactly the issue calls
    of a ``_tick`` run, of which it skipped none that issued."""
    machines = _machine_pair(machine, **sim)
    calls = {"scans": 0, "issued": 0}
    real_issue = ProcessingUnit.issue

    def counting_issue(pu, cycle, owner):
        issued, reason = real_issue(pu, cycle, owner)
        calls["scans"] += 1
        calls["issued"] += issued > 0
        return issued, reason

    result = machines["fast"].run()
    monkeypatch.setattr(ProcessingUnit, "issue", counting_issue)
    assert machines["reference"].run() == result
    assert machines["reference"].kernel_counters is None
    counters = machines["fast"].kernel_counters
    assert list(counters) == list(native.KERNEL_COUNTERS)
    states = ("wrong_path", "idle", "retiring", "done", "active")
    assert sum(counters[name] for name in states) == (
        machines["fast"].config.n_pus * result.cycles
    )
    assert counters["scans"] + counters["skipped_asleep"] == calls["scans"]
    assert counters["scans"] - counters["fruitless_scans"] == calls["issued"]
    assert counters["skipped_asleep"] > 0
    assert counters["entries_examined"] >= counters["scans"]


def test_max_cycles_stuck_carries_the_same_fields():
    messages = {}
    for engine, m in _machine_pair(max_cycles=50).items():
        with pytest.raises(SimulationStuck) as exc_info:
            m.run()
        messages[engine] = str(exc_info.value)
    assert "engine=fast" in messages["fast"]
    assert messages["fast"].replace("engine=fast", "engine=reference") == (
        messages["reference"]
    )


def test_verify_reports_a_kernel_off_by_one(monkeypatch):
    """verify runs fault-free cells through the kernel too, and a
    kernel that drifts from the monitored ``_tick`` run is a divergence."""
    real_run = native.run

    def off_by_one(machine):
        cycles = real_run(machine)
        return None if cycles is None else cycles + 1

    clean = verify_workload("compress", HeuristicLevel.CONTROL_FLOW,
                            scale=SMALL)
    assert clean.ok, clean.summary()
    monkeypatch.setattr(native, "run", off_by_one)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_workload("compress", HeuristicLevel.CONTROL_FLOW,
                                 scale=SMALL)
    assert not report.ok
    assert any("native loop cycles" in d for d in report.divergences), (
        report.divergences
    )


def test_verify_reports_a_kernel_cache_write_back_fault(monkeypatch):
    """verify compares the kernel's whole ``SimResult``: one extra L1D
    hit written back after the run leaves the cycles alone but shows
    in ``cache_stats``."""
    real_run = native.run

    def extra_hit(machine):
        cycles = real_run(machine)
        if cycles is not None:
            machine.hierarchy.l1d.hits += 1
        return cycles

    monkeypatch.setattr(native, "run", extra_hit)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_workload("compress", HeuristicLevel.CONTROL_FLOW,
                                 scale=SMALL)
    assert len(report.divergences) == 1, report.divergences
    assert report.divergences[0].startswith("native loop cache_stats ")


def assert_lowering_matches_packing(stream):
    """The kernel's buffers for ``stream``'s trace, and the
    ``has_remote_consumer`` flags a kernel run derives from its task
    spans, equal the Python packing of the reference loop."""
    low = native.lowering(stream.trace)
    assert low is not None
    arrays = stream.packed.arrays
    for name in ("opcls", "is_load", "is_store", "is_mem",
                 "is_cond_branch", "block_start", "has_write",
                 "gshare_mispred", "pc", "addr"):
        assert getattr(low, name) == getattr(arrays, name), name
    assert low.latency.tolist() == arrays.latency
    assert low.mem_producer.tolist() == arrays.mem_producer
    assert low.prod_off.tolist() == list(
        accumulate(map(len, arrays.producers), initial=0)
    )
    assert low.prod.tolist() == [p for prods in arrays.producers
                                 for p in prods]
    assert low.gshare_predictions == arrays.gshare_predictions
    assert low.gshare_mispredictions == sum(arrays.gshare_mispred)
    assert low.gshare_accuracy == arrays.gshare_accuracy

    machine = MultiscalarMachine(stream, SimConfig())
    machine.run()
    assert "packed" not in vars(machine.state)  # the flags are the kernel's
    assert machine.state.has_remote_consumer == (
        stream.packed.has_remote_consumer
    )


#: an empty block, a store/load pair through memory, a call (absorbed
#: at the higher levels) and a loop
_EDGES = """
.func main
entry:
    li      r2, #3
    li      r4, #40
empty:
loop:
    store   r2, [r4 + 0]
    call    @bump, @back
back:
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


@pytest.mark.parametrize("level", list(HeuristicLevel),
                         ids=lambda level: level.value)
def test_lowering_matches_packing_on_a_hand_program(level):
    partition = select_tasks(parse_program(_EDGES),
                             SelectionConfig(level=level))
    stream = build_task_stream(run_program(partition.program), partition)
    assert_lowering_matches_packing(stream)
    results = [simulate(stream, SimConfig(engine=engine).scaled_for_pus(2))
               for engine in ("fast", "reference")]
    assert results[0] == results[1]


def test_fast_run_builds_no_python_packing():
    """A kernel run reads only the kernel's lowering; the reference
    run that follows packs, and its record is the same."""
    runner.clear_cache()
    try:
        level = HeuristicLevel.TASK_SIZE
        fast = run_benchmark("tomcatv", level, scale=SMALL)
        compiled = compile_benchmark("tomcatv", level, scale=SMALL)
        assert compiled.trace.arrays is None
        assert compiled.stream._packed is None
        reference = run_benchmark("tomcatv", level, scale=SMALL,
                                  sim=SimConfig(engine="reference"))
        assert compiled.stream._packed is not None
        assert record_to_dict(fast) == record_to_dict(reference)
    finally:
        runner.clear_cache()


# ------------------------------------------------- sleeping issue scans


def _wake_cell(text, level=HeuristicLevel.BASIC_BLOCK, **sim):
    """Run a hand-built cell on both loops, check that the kernel slept
    and reads as ``_tick`` afterwards, and return the kernel's machine.
    A missed wake either delays an issue, which shows in the result, or
    sleeps through the cell, which ``max_cycles`` turns into a
    ``SimulationStuck``."""
    partition = select_tasks(parse_program(text),
                             SelectionConfig(level=level))
    stream = build_task_stream(run_program(partition.program), partition)
    machines = {
        engine: MultiscalarMachine(
            stream, SimConfig(engine=engine, max_cycles=20_000, **sim)
        )
        for engine in ("fast", "reference")
    }
    results = {engine: m.run() for engine, m in machines.items()}
    assert results["fast"] == results["reference"]
    fast = _post_run_state(machines["fast"])
    reference = _post_run_state(machines["reference"])
    for key in reference:
        assert fast[key] == reference[key], key
    assert machines["fast"].kernel_counters["skipped_asleep"] > 0
    return machines["fast"]


#: Each iteration (one task at the control-flow level) first reads r1,
#: which the previous iteration's DIV writes: its scans sleep on a
#: forward not yet scheduled, with nothing in flight.  On odd
#: iterations no release point covers that write (the `even` block may
#: redefine r1), so SCHEDULE forwards it release_lag cycles late.
_FORWARD = """
.func main
entry:
    li      r1, #1000000
    li      r2, #3
    li      r4, #0
    li      r8, #24
    li      r10, #100
body:
    div     r1, r1, r2
    and     r9, r4, #1
    beqz    r9, @even, @odd
even:
    add     r1, r1, #1
odd:
    add     r4, r4, #1
    slt     r9, r4, r8
    bnez    r9, @body, @done
done:
    store   r1, [r10 + 0]
    halt
"""


@pytest.mark.parametrize("policy", list(ForwardPolicy),
                         ids=lambda policy: policy.value)
def test_forward_wakes_its_readers(policy):
    machine = _wake_cell(_FORWARD, HeuristicLevel.CONTROL_FLOW,
                         forward_policy=policy, release_lag=5)
    if policy is ForwardPolicy.SCHEDULE:
        state = machine.state
        release = machine.stream.schedule_release(state.release_analysis)
        remote = state.has_remote_consumer
        assert any(remote[i] and not release[i] for i in range(len(remote)))


#: `spill` issues its first store, and with one ARB entry per PU its
#: second waits until `work`'s DIV chain retires and `spill` is the head.
_FULL_ARB = """
.func main
entry:
    li      r1, #1000000
    li      r2, #3
    li      r10, #200
    jump    @work
work:
    div     r1, r1, r2
    div     r1, r1, r2
    div     r1, r1, r2
    div     r1, r1, r2
    jump    @spill
spill:
    store   r2, [r10 + 0]
    store   r2, [r10 + 1]
    jump    @last
last:
    store   r1, [r10 + 2]
    halt
"""


def test_becoming_the_head_wakes_a_full_arb():
    _wake_cell(_FULL_ARB, arb_entries_per_pu=1)


#: Each iteration's ADD chain waits on its own DIV, with nothing left
#: to fetch: only the completion heap bounds the sleep.
_OWN_COMPLETION = """
.func main
entry:
    li      r1, #1000000
    li      r2, #3
    li      r4, #0
    li      r8, #24
body:
    div     r3, r1, r2
    add     r5, r3, #1
    add     r5, r5, #1
    add     r4, r4, #1
    slt     r9, r4, r8
    bnez    r9, @body, @done
done:
    halt
"""


def test_own_completion_ends_an_intra_task_wait():
    _wake_cell(_OWN_COMPLETION)


#: Two fetches after the DIV the window holds only its dependent ADDs,
#: so the scan sleeps until the DIV completes; the fetch of that cycle
#: brings in two independent LIs, which issue the next cycle.
_FETCH_INTO_SLEEP = """
.func main
entry:
    li      r1, #1000000
    li      r2, #3
    li      r4, #0
    li      r8, #24
body:
    div     r3, r1, r2
    add     r5, r3, #1
    add     r6, r5, #1
    add     r7, r6, #1
    li      r11, #1
    li      r12, #2
    add     r4, r4, #1
    slt     r9, r4, r8
    bnez    r9, @body, @done
done:
    halt
"""


def test_fetch_wakes_an_out_of_order_window():
    _wake_cell(_FETCH_INTO_SLEEP)
