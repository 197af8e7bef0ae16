"""Self-test of the benchmark at tiny sizes: ``python -m pytest perf -q``.

Kept out of the tier-1 suite (``testpaths`` names only ``tests/``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import compare
import hostclock
import run
import workloads
from repro.experiments.figure5 import figure5_specs
from repro.experiments.scaling import scaling_specs
from spans import PASS, Recorder, instrument, self_times

BENCHMARK = run.load_benchmark()
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SMOKE = ("compress", "m88ksim", "tomcatv", "swim")
TINY = 0.05


def patched_owners():
    """Every module and class :func:`spans.instrument` may patch."""
    from repro.compiler import partition
    from repro.experiments import runner
    from repro.harness import scheduler
    from repro.harness.cache import ArtifactCache
    from repro.sim.machine import MultiscalarMachine
    from repro.tune import ga
    from repro.workloads.registry import Benchmark

    return [partition, runner, scheduler, ga, ArtifactCache,
            MultiscalarMachine, Benchmark]


def snapshot():
    return [dict(vars(owner)) for owner in patched_owners()]


def assert_restored(before) -> None:
    for owner, old in zip(patched_owners(), before):
        now = vars(owner)
        changed = [k for k, v in old.items() if now.get(k) is not v]
        assert not changed, f"{owner.__name__}: {changed} left wrapped"


@pytest.fixture
def tiny(monkeypatch):
    """The four workloads shrunk to a few seconds each."""
    monkeypatch.setattr(workloads, "TUNE_BUDGET", 8)
    monkeypatch.setattr(workloads, "TUNE_SCALE", TINY)
    monkeypatch.setattr(workloads, "RERUN_WARM", 2)
    rerun = workloads.RerunWorkload()
    rerun.specs = figure5_specs(SMOKE[:1], ((4, True),), scale=TINY)[1]
    rerun.cells_per_pass = len(rerun.specs)
    return {
        "figure5": workloads.GridWorkload(
            "figure5",
            lambda: figure5_specs(SMOKE, ((4, True), (8, False)),
                                  scale=TINY)[1],
        ),
        "tune": workloads.TuneWorkload(),
        "manycore": workloads.GridWorkload(
            "manycore",
            lambda: scaling_specs(SMOKE[:2], ("manycore-32",),
                                  scale=TINY)[1],
        ),
        "rerun": rerun,
    }


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_emits_every_metric(tiny, name):
    workload = tiny[name]
    before = snapshot()
    untraced = run.measure(workload, 7, 0, False, None, setup_s=0.1)
    assert_restored(before)
    # Without pins the run is wrong, and says why.
    assert untraced.problems == [f"pass 0: {name}: no pins in expected.json "
                                 f"(run --pin)"]
    facts = untraced.detail["facts"]
    traced = run.measure(workload, 7, 0, True, facts, setup_s=None)
    assert_restored(before)
    assert traced.correct, traced.problems
    assert traced.detail["facts"] == facts

    for outcome, kind in ((untraced, "end_to_end"), (traced, "per_layer")):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        assert outcome.units == declared
        assert set(outcome.metrics) == set(declared)
    assert all(value > 0 for value in untraced.metrics.values())
    assert traced.metrics["sim.run_calls"] > 0

    spans = traced.recorder.spans
    own = self_times(spans)
    assert min(own) >= -1e-9
    roots = [s for s in spans if s.parent is None]
    assert {s.name for s in roots} == {PASS}
    wall = sum(s.duration for s in roots)
    assert sum(own) == pytest.approx(wall, rel=0.05)


def test_instrument_restores_after_an_error():
    before = snapshot()
    with pytest.raises(RuntimeError):
        with instrument(Recorder(), layers=True):
            raise RuntimeError("boom")
    assert_restored(before)


def test_benchmark_json_names_the_workloads():
    assert list(workloads.make_workloads()) == WORKLOADS


def fake_set(scale_wall: float = 1.0) -> dict:
    """A run set of ten runs per workload with a little noise."""
    runs = {}
    for workload in WORKLOADS:
        runs[workload] = []
        for seed in range(10):
            noise = 1.0 + 0.004 * ((seed * 7) % 5 - 2)
            metrics = {
                m["name"]: {"value": 100.0 * noise, "unit": m["unit"]}
                for m in BENCHMARK["end_to_end"]
            }
            metrics["wall_s"]["value"] *= scale_wall
            runs[workload].append({
                "seed": seed,
                "exit": 0,
                "result": {"correct": True, "attempted": 10, "failed": 0,
                           "metrics": metrics},
                "detail": {"facts": {"sim_cycles": 1000 + seed},
                           "error_rate": 0.0},
            })
    return {"runs": runs}


def wall_verdicts(lines) -> set:
    return {line.split()[-1] for line in lines if " wall_s " in line}


def test_compare_flags_a_planted_slowdown():
    base = fake_set()
    lines, ok = compare.compare(base, fake_set(), BENCHMARK)
    assert ok, lines
    assert wall_verdicts(lines) == {"within"}
    bound = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}["wall_s"]
    # 20% is inside the 25% bound: flagged, but not a failure.
    assert bound > 0.20
    lines, ok = compare.compare(base, fake_set(scale_wall=1.20), BENCHMARK)
    assert ok, lines
    assert wall_verdicts(lines) == {"worse-within"}
    lines, ok = compare.compare(base, fake_set(scale_wall=1.0 + bound + 0.05),
                                BENCHMARK)
    assert not ok
    assert wall_verdicts(lines) == {"worse"}


def test_compare_flags_different_results():
    changed = fake_set()
    changed["runs"]["figure5"][3]["detail"]["facts"]["sim_cycles"] += 1
    lines, ok = compare.compare(fake_set(), changed, BENCHMARK)
    assert not ok
    assert any(line.startswith("PROBLEM figure5 seed 3: facts differ")
               for line in lines)


def test_compare_fails_on_incorrect_runs():
    changed = fake_set()
    changed["runs"]["tune"][2]["result"]["correct"] = False
    lines, ok = compare.compare(fake_set(), changed, BENCHMARK)
    assert not ok
    assert "PROBLEM tune seed 2: run in B was not correct" in lines


def test_compare_fails_on_missing_runs():
    changed = fake_set()
    changed["runs"]["manycore"][4] = run.child_entry(4, 1, "")
    del changed["runs"]["rerun"]
    lines, ok = compare.compare(fake_set(), changed, BENCHMARK)
    assert not ok
    assert "PROBLEM manycore seed 4: run in B printed no result (exit 1)" \
        in lines
    assert "PROBLEM manycore: 10 runs with a result in A, 9 in B" in lines
    assert "PROBLEM rerun: 10 runs with a result in A, 0 in B" in lines


def test_compare_reports_noise_wider_than_the_bound_as_unresolved():
    assert compare.verdict([1.0, 1.5, 1.0, 1.5], [1.2, 1.3, 1.2, 1.3],
                           0.1, False)[1] == "unresolved"


def test_child_entry_keeps_failed_runs():
    result = {"correct": False, "attempted": 3, "failed": 1, "metrics": {}}
    stdout = 'detail {"passes": 1}\n' + json.dumps(result) + "\n"
    assert run.child_entry(5, 1, stdout) == {
        "seed": 5, "exit": 1, "result": result, "detail": {"passes": 1}}
    assert run.child_entry(6, None, "Traceback ...")["result"] is None


def pass_result(seconds: float, speed: float) -> workloads.PassResult:
    return workloads.PassResult(
        seconds=seconds, cold_seconds=seconds, cold_speed=speed,
        samples=[seconds], sample_speeds=[speed],
        sim_cycles=1000, sim_insts=500, cell_seconds=[seconds / 2] * 2,
        cell_speeds=[speed] * 2, attempted=2, failed=0)


def test_timings_are_scaled_to_reference_speed():
    """A pass at half speed counts as half its host time."""
    metrics = run.end_to_end_metrics(
        [pass_result(4.0, 0.5), pass_result(2.0, 1.0), pass_result(2.2, 1.0)],
        setup_s=0.1, tail_pct=50)
    assert metrics["wall_s"] == pytest.approx(2.0)
    assert metrics["sim_cycles_per_s"] == pytest.approx(500.0)
    assert metrics["cell_p50_ms"] == pytest.approx(1000.0)


def test_host_speed_weights_each_probe_by_the_work_before_it():
    ref = hostclock.REFERENCE_S
    assert hostclock.speed([ref, 2 * ref]) == pytest.approx(2 / 3)
    # Three seconds of work at reference speed, one at half speed.
    assert hostclock.speed([ref, 2 * ref], [3.0, 1.0]) == pytest.approx(0.8)
    clock = hostclock.HostClock()
    assert clock.speed() is None
    probe = clock.sample()
    assert clock.samples == [probe] and len(clock.work) == 1
    assert clock.speed() == pytest.approx(ref / probe)


def test_run_fails_without_the_sources(tmp_path):
    """In a directory holding only the benchmark, a run fails cleanly."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "figure5", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
