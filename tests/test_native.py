"""The native cycle loop: build, fallback, lowering, post-run state.

Bit-identity of results and event streams is swept in
``test_fastpath.py``, ``test_machines.py`` and ``test_telemetry.py``;
these tests cover what is particular to the kernel: how it is built
and salted, what happens when it cannot be, that its lowering of a
trace equals the Python packing (``tests/test_trace_sharing.py`` runs
that check on every benchmark and level), that a kernel run builds no
Python packing, and that a machine reads the same after a kernel run
as after a ``_tick`` run.
"""

import os
import subprocess
import sys
import warnings
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
from repro.reliability import verify_workload
from repro.sim import SimConfig, build_task_stream, native, simulate
from repro.sim.machine import MultiscalarMachine, SimulationStuck

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
    """A missing compiler: one warning naming the error, then the
    reference loop, whose record the fast run reproduces exactly."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(native, "_kernel", None)
    monkeypatch.setattr(native, "COMMAND", ("no-such-cc", "-O2"))
    reference = run_benchmark(
        "compress", HeuristicLevel.CONTROL_FLOW, scale=SMALL,
        sim=SimConfig(engine="reference"),
    )
    with pytest.warns(RuntimeWarning, match="no-such-cc") as caught:
        fast = run_benchmark("compress", HeuristicLevel.CONTROL_FLOW,
                             scale=SMALL)
        again = run_benchmark("compress", HeuristicLevel.TASK_SIZE,
                              scale=SMALL)
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


def _machine_pair(machine=None, **sim):
    compiled = compile_benchmark("li", HeuristicLevel.CONTROL_FLOW,
                                 scale=SMALL)
    machines = {}
    for engine in ("fast", "reference"):
        config = SimConfig(engine=engine, machine=machine, **sim)
        if machine is None:
            config = config.scaled_for_pus(4)
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
    (None, {}),
    ("hetero-16", {}),
    (None, {"sync_table_size": 2}),
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
                 "gshare_mispred", "issue_simple", "pc", "addr"):
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
