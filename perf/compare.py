#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 perf/run.py --repeat 10 --out A.json      # parent commit
    python3 perf/run.py --repeat 10 --out B.json      # change
    python3 perf/compare.py A.json B.json

For each workload and end-to-end metric it prints both sides' median
and quartiles, the change of B's median against A's, and a verdict:

* ``worse``      - B's median is worse than A's by more than the bound;
* ``better``     - B's median is better by more than the bound and by
  more than A's own spread;
* ``unresolved`` - either side's spread (quartile distance over median)
  is wider than the bound, so a difference within it cannot be told
  from noise (unless every B run beats every A run: ``better``);
* ``worse-within`` - B's median is worse by less than the bound but by
  more than A's own spread (or every B run is worse than every A run):
  a real slowdown the bound still allows;
* ``within``     - no worse than the bound.

It exits non-zero when any metric is ``worse``; when a run printed no
result or was not correct; when a workload has fewer runs with a
result in B than in A, or none in A; or when the simulated results
differ: the pinned facts (sim cycles, record digests) of runs with the
same seed, or the error rate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: List[float], b: List[float], bound: float,
            higher_is_better: bool) -> Tuple[float, str]:
    """(relative change of B's median against A's, verdict)."""
    sign = -1.0 if higher_is_better else 1.0
    median_a = quartiles(a)[1]
    change = (quartiles(b)[1] - median_a) / abs(median_a)
    worsened = sign * change
    if worsened > bound:
        return change, "worse"
    beats_all = (min(b) > max(a)) if higher_is_better else (max(b) < min(a))
    if -worsened > max(bound, spread(a)) or beats_all:
        return change, "better"
    if max(spread(a), spread(b)) > bound:
        return change, "unresolved"
    loses_all = (max(b) < min(a)) if higher_is_better else (min(b) > max(a))
    if worsened > spread(a) or loses_all:
        return change, "worse-within"
    return change, "within"


def results(run_set: Dict, workload: str) -> List[Dict]:
    """The runs of ``workload`` that printed a result."""
    return [run for run in run_set["runs"].get(workload, [])
            if run.get("result") is not None]


def values(run_set: Dict, workload: str, metric: str) -> List[float]:
    return [
        run["result"]["metrics"][metric]["value"]
        for run in results(run_set, workload)
        if metric in run["result"]["metrics"]
    ]


def result_problems(a: Dict, b: Dict, workloads: List[str]) -> List[str]:
    """Failed or missing runs, and differences in what was simulated."""
    problems = []
    for workload in workloads:
        count_a, count_b = len(results(a, workload)), len(results(b, workload))
        if not count_a or count_b < count_a:
            problems.append(f"{workload}: {count_a} runs with a result in A, "
                            f"{count_b} in B")
        by_seed = {run["seed"]: run for run in results(a, workload)}
        for run in results(b, workload):
            other = by_seed.get(run["seed"])
            if other is None:
                continue
            for key in ("facts", "error_rate"):
                if run["detail"].get(key) != other["detail"].get(key):
                    problems.append(
                        f"{workload} seed {run['seed']}: {key} differ: "
                        f"{other['detail'].get(key)} vs "
                        f"{run['detail'].get(key)}"
                    )
        for side, run_set in (("A", a), ("B", b)):
            for run in run_set["runs"].get(workload, []):
                if run.get("result") is None:
                    problems.append(
                        f"{workload} seed {run['seed']}: run in {side} "
                        f"printed no result (exit {run.get('exit')})"
                    )
                elif not run["result"]["correct"]:
                    problems.append(
                        f"{workload} seed {run['seed']}: run in {side} "
                        f"was not correct"
                    )
    return problems


def compare(a: Dict, b: Dict, benchmark: Dict) -> Tuple[List[str], bool]:
    """Report lines, and whether B passes against A."""
    lines = [
        f"{'workload':<9} {'metric':<17} {'A median [q1, q3]':>30} "
        f"{'B median [q1, q3]':>30} {'change':>8} {'bound':>6}  verdict"
    ]
    ok = True
    workloads = [w["name"] for w in benchmark["workloads"]]
    for workload in workloads:
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            va, vb = values(a, workload, name), values(b, workload, name)
            if not va or not vb:
                continue
            change, word = verdict(va, vb, metric["bound"],
                                   metric["better"] == "higher")
            ok = ok and word != "worse"
            cells = []
            for vals in (va, vb):
                q1, median, q3 = quartiles(vals)
                cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(vals)}")
            lines.append(
                f"{workload:<9} {name:<17} {cells[0]:>30} {cells[1]:>30} "
                f"{change:>+8.1%} {metric['bound']:>6.0%}  {word}"
            )
    problems = result_problems(a, b, workloads)
    lines += [f"PROBLEM {p}" for p in problems]
    return lines, ok and not problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="run set of the base (parent) commit")
    parser.add_argument("b", help="run set of the change")
    args = parser.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    run_sets = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as handle:
            run_sets.append(json.load(handle))
    lines, ok = compare(run_sets[0], run_sets[1], benchmark)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
