#!/usr/bin/env python3
"""Run the repro benchmark.

One run of one workload (the last stdout line is the result as JSON)::

    python3 perf/run.py --workload figure5 --seed 1 --trace 0

Every workload, one fresh child process each, one at a time::

    python3 perf/run.py [--seed S] [--trace] [--repeat N] [--out set.json]

Regenerate the correctness pins in ``perf/expected.json``::

    python3 perf/run.py --pin

Untraced runs report the end-to-end metrics, with timings scaled to a
reference host speed (see ``hostclock``).  ``--trace`` runs the same
passes with spans around every layer, reports the per-layer metrics in
host time, writes ``perf/out/<workload>.spans.json`` (Chrome trace
events, for Perfetto) and prints a self-time table.  A run exits
non-zero when any output differs from its pin.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
#: names the workloads and metrics (with units), and the run length
BENCHMARK = ROOT / "BENCHMARK.json"
EXPECTED = PERF / "expected.json"
OUT_DIR = PERF / "out"

PIN_SEED = 1
#: seconds one child run may take when running every workload
CHILD_TIMEOUT = 180

#: fresh interpreters timed for ``setup_s``; the median is reported
SETUP_RUNS = 9
#: host-speed probes taken before, and again after, each of them
SETUP_PROBES = 10
#: what a fresh process pays before its first cell: the package, the
#: grid drivers and the workload, machine and strategy registries
SETUP_CODE = (
    "import repro, repro.experiments.figure5, repro.experiments.scaling, "
    "repro.tune\n"
    "from repro.compiler.strategy import strategy_names\n"
    "from repro.machines import machine_names\n"
    "repro.all_benchmarks(); machine_names(); strategy_names()\n"
)

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def load_benchmark() -> Dict:
    with open(BENCHMARK, encoding="utf-8") as handle:
        return json.load(handle)


def declared_units(kind: str) -> Dict[str, str]:
    """Unit of every ``end_to_end`` or ``per_layer`` metric, by name."""
    return {m["name"]: m["unit"] for m in load_benchmark()[kind]}


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def measure_setup() -> float:
    """Median reference seconds of fresh interpreters importing the package.

    Each interpreter's time is scaled by the host speed probed just
    before and just after it.
    """
    from hostclock import HostClock, speed

    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    clock = HostClock()
    times = []
    for _ in range(SETUP_RUNS):
        probes = [clock.sample() for _ in range(SETUP_PROBES)]
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        seconds = time.perf_counter() - start
        probes += [clock.sample() for _ in range(SETUP_PROBES)]
        times.append(seconds * speed(probes))
    return statistics.median(times)


def load_expected() -> Dict:
    try:
        with open(EXPECTED, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def end_to_end_metrics(passes, setup_s: float,
                       tail_pct: int) -> Dict[str, float]:
    """The user-visible numbers of identical passes, in reference time.

    Each host time is scaled by the host speed probed over it (see
    ``hostclock``): cold work (a pass, or the rerun fill) by the speed
    over all of it, a cell or a warm re-run by the probes just before
    and just after it.  Each timing is then the median over the run:
    over its passes (or warm re-runs) and, per cell, over the cell's
    executions.
    """
    cold = [p.cold_seconds * p.cold_speed for p in passes]
    cells = [
        statistics.median(times)
        for times in zip(*([t * k for t, k in zip(p.cell_seconds,
                                                  p.cell_speeds)]
                           for p in passes))
    ]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(
            t * k for p in passes for t, k in zip(p.samples, p.sample_speeds)),
        "sim_cycles_per_s": statistics.median(
            p.sim_cycles / c for p, c in zip(passes, cold)),
        "sim_insts_per_s": statistics.median(
            p.sim_insts / c for p, c in zip(passes, cold)),
        "cell_p50_ms": statistics.median(cells) * 1e3,
        "cell_tail_ms": percentile(cells, tail_pct) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def layer_metrics(passes, recorder, untraced,
                  diagnostics: Dict[str, float]) -> Dict[str, float]:
    """Per-pass layer numbers from the traced passes' spans and counts."""
    from spans import layer_totals

    n = len(passes)
    totals = layer_totals(recorder.spans)
    counts = recorder.counts

    def seconds(name: str) -> float:
        return totals.get(name, {}).get("seconds", 0.0)

    def own(name: str) -> float:
        return totals.get(name, {}).get("self", 0.0)

    def calls(name: str) -> int:
        return totals.get(name, {}).get("calls", 0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def per_pass_info(key: str) -> float:
        return sum(p.info.get(key, 0.0) for p in passes) / n

    cycles = counts["sim.cycles"]
    builds = calls("workloads.build")
    compiles = calls("experiments.compile")
    return {
        "sim.run_s": seconds("sim.run") / n,
        "sim.us_per_cycle": ratio(seconds("sim.run") * 1e6, cycles),
        "sim.run_calls": calls("sim.run") / n,
        "sim.cycles": cycles / n,
        "sim.insts": counts["sim.insts"] / n,
        "sim.cycles_skipped": counts["sim.cycles_skipped"] / n,
        "sim.skip_ratio": ratio(counts["sim.cycles_skipped"], cycles),
        "sim.init_s": seconds("sim.init") / n,
        "sim.pack_s": seconds("sim.pack") / n,
        "sim.pack_tasks": counts["sim.pack_tasks"] / n,
        "compiler.select_self_s": own("compiler.select") / n,
        "compiler.select_calls": calls("compiler.select") / n,
        "compiler.release_s": seconds("compiler.release") / n,
        "ir.interp_s": seconds("ir.interp") / n,
        "ir.interp_calls": calls("ir.interp") / n,
        "ir.interp_insts": counts["ir.interp_insts"] / n,
        "ir.interp_insts_per_s": ratio(counts["ir.interp_insts"],
                                       seconds("ir.interp")),
        "profiling.profile_s": seconds("profiling.profile") / n,
        "workloads.build_s": seconds("workloads.build") / n,
        "workloads.build_calls": builds / n,
        "experiments.compile_s": seconds("experiments.compile") / n,
        "experiments.compile_calls": compiles / n,
        "experiments.compile_hit_ratio": 1.0 - ratio(builds, compiles),
        "experiments.record_s": seconds("experiments.record") / n,
        "harness.cache_get_s": seconds("harness.cache_get") / n,
        "harness.cache_put_s": seconds("harness.cache_put") / n,
        "harness.cache_hit_ratio": ratio(counts["harness.cache_hits"],
                                         counts["harness.cache_gets"]),
        "harness.cache_bytes": per_pass_info("harness.cache_bytes"),
        "harness.overhead_s": own("harness.run_specs") / n,
        "harness.jobs2_speedup": diagnostics.get("harness.jobs2_speedup", 0.0),
        "tune.self_s": own("perf.pass") / n,
        "tune.genomes_simulated": per_pass_info("tune.genomes_simulated"),
        "tune.memo_hit_ratio": per_pass_info("tune.memo_hit_ratio"),
        "trace.overhead_pct": (min(p.seconds for p in passes)
                               / min(p.seconds for p in untraced) - 1.0)
        * 100.0,
    }


def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    """Run one workload for ``seconds``; print metrics, then the result."""
    setup_s = None if traced else measure_setup()
    from spans import format_self_times, write_chrome_trace
    from workloads import make_workloads

    outcome = measure(make_workloads()[name], seed, seconds, traced,
                      load_expected().get(name), setup_s)
    if traced:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{name}.spans.json"
        write_chrome_trace(outcome.recorder.spans, spans_path)
        print(format_self_times(outcome.recorder.spans))
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    for problem in outcome.problems:
        print(f"WRONG {name}: {problem}")
    for key, value in outcome.metrics.items():
        print(f"{name:<9} {key:<32} {value:>16.6g} {outcome.units[key]}")
    print("detail " + json.dumps(outcome.detail, sort_keys=True))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": outcome.units[k]}
                    for k, v in outcome.metrics.items()},
    }))
    return 0 if outcome.correct else 1


@dataclass
class Outcome:
    """Everything one run of one workload measured."""

    metrics: Dict[str, float]
    units: Dict[str, str]
    attempted: int
    failed: int
    problems: List[str]
    detail: Dict
    recorder: object

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def measure(workload, seed: int, seconds: float, traced: bool,
            expected: Optional[Dict], setup_s: Optional[float]) -> Outcome:
    """Run passes of ``workload`` until ``seconds`` are used, then check.

    Another pass starts while at least half a pass's time is left, so
    a run overshoots ``seconds`` by at most half a pass; the first pass
    always runs.  An untraced run probes host speed after every cell.
    A traced run alternates untraced and traced passes, for the tracing
    overhead; only the traced ones feed its metrics, and ``setup_s``
    (reported by untraced runs only) is None.
    """
    from spans import WARM, Recorder, inside, instrument

    workload.prepare()
    start = time.perf_counter()
    recorder, reference = Recorder(probing=not traced), Recorder()
    passes, untraced = [], []
    while True:
        step = 0.0
        if traced:
            with instrument(reference, layers=False):
                untraced.append(workload.run_pass(seed, reference))
            step = untraced[-1].seconds
        with instrument(recorder, layers=traced):
            passes.append(workload.run_pass(seed, recorder))
        step += passes[-1].seconds
        if time.perf_counter() - start + step / 2 > seconds:
            break

    problems = []
    for number, result in enumerate(passes):
        problems += [f"pass {number}: {p}"
                     for p in result.problems + workload.check(result, expected)]
    if traced:
        if any(s.name in ("sim.run", "harness.cell")
               for s in inside(recorder.spans, WARM)):
            problems.append("a warm re-run executed cells")
        metrics = layer_metrics(passes, recorder, untraced,
                                workload.diagnostics(seed))
        units = declared_units("per_layer")
    else:
        metrics = end_to_end_metrics(passes, setup_s, workload.tail_pct)
        units = declared_units("end_to_end")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    detail = {
        "workload": workload.name, "seed": seed, "traced": traced,
        "passes": len(passes), "cells": len(recorder.cells()),
        "tail_pct": workload.tail_pct, "error_rate": failed / attempted,
        "facts": passes[0].facts, "problems": problems,
        # host seconds as measured, before scaling to reference time
        "host": [{"seconds": p.seconds, "cold_seconds": p.cold_seconds,
                  "cold_speed": p.cold_speed,
                  "samples": p.samples, "sample_speeds": p.sample_speeds}
                 for p in passes],
    }
    return Outcome(metrics, units, attempted, failed, problems, detail,
                   recorder)


def child_entry(seed: int, exit_code: Optional[int], stdout: str) -> Dict:
    """One child run as a run set records it, whether it worked or not.

    ``result`` is the child's last stdout line, or None when it printed
    no result (it crashed, timed out or found no sources).
    """
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    details = [json.loads(line[len("detail "):]) for line in lines
               if line.startswith("detail ")]
    return {"seed": seed, "exit": exit_code,
            "result": result if isinstance(result, dict) else None,
            "detail": details[-1] if details else {}}


def run_all(names: List[str], seed: int, traced: bool, repeat: int,
            out: Optional[str]) -> int:
    """Every workload in its own child process, ``repeat`` seeds each.

    Children measure for ``run_seconds`` from ``BENCHMARK.json``, so
    every run set has the same run length.
    """
    runs: Dict[str, List[Dict]] = {name: [] for name in names}
    ok = True
    for offset in range(repeat):
        for name in names:
            run_seed = seed + offset
            try:
                proc = subprocess.run(
                    [sys.executable, str(Path(__file__).resolve()),
                     "--workload", name, "--seed", str(run_seed),
                     "--trace", str(int(traced))],
                    capture_output=True, text=True, cwd=ROOT,
                    timeout=CHILD_TIMEOUT,
                )
                exit_code, stdout, stderr = (proc.returncode, proc.stdout,
                                             proc.stderr)
            except subprocess.TimeoutExpired:
                exit_code, stdout, stderr = None, "", "timed out\n"
            entry = child_entry(run_seed, exit_code, stdout)
            runs[name].append(entry)
            result = entry["result"]
            if exit_code != 0 or result is None:
                ok = False
                sys.stdout.write(stdout)
                sys.stderr.write(stderr)
                print(f"{name} seed {run_seed}: FAILED (exit {exit_code})")
            if result is None:
                continue
            print(f"{name} seed {run_seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']} "
                  f"passes={entry['detail'].get('passes')}")
            for key, metric in result["metrics"].items():
                print(f"  {key:<32} {metric['value']:>16.6g} "
                      f"{metric['unit']}")
            ok = ok and result["correct"]
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({"traced": traced, "runs": runs},
                      handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"runs written to {out}")
    return 0 if ok else 1


def pin() -> int:
    """Run the first pass of every workload at the pin seed; save facts."""
    from spans import Recorder, instrument
    from workloads import make_workloads

    pins = {}
    for name, workload in make_workloads().items():
        workload.prepare()
        recorder = Recorder()
        with instrument(recorder, layers=False):
            result = workload.run_pass(PIN_SEED, recorder)
        if result.problems or result.failed:
            print(f"{name}: cannot pin: {result.problems or 'cells failed'}",
                  file=sys.stderr)
            return 1
        pins[name] = result.facts
        print(f"{name}: {result.facts}")
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload and print its result as JSON")
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    # Every benchmark run is invoked as ``--workload W --seed N --seconds
    # S --trace 0|1``, so the flag must parse; run_all never sets it.
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"],
                        help="how long one run of --workload measures "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--out", help="write every run's result here")
    parser.add_argument("--pin", action="store_true",
                        help="regenerate perf/expected.json")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: repro sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.pin:
        return pin()
    if args.workload:
        return run_one(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    return run_all(names, args.seed, bool(args.trace), args.repeat, args.out)


if __name__ == "__main__":
    sys.exit(main())
