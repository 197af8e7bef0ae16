"""The benchmark's four workloads: what one pass runs and how it is checked.

A run repeats identical passes of one workload until its time is up.
Every pass starts cold: the in-memory compile cache is cleared, and
the artifact cache is either off or a fresh directory.  All cells run
serially in this process (``jobs=1``), so the load is a closed loop
of one client.

The workloads differ mainly in how much compile work their cells
share, which decides the layer that does the work:

* ``figure5``  - the paper grid: compile shared 4:1, simulate-bound;
* ``tune``     - a GA campaign: nearly every cell is a new compile;
* ``manycore`` - 16/32/64-PU rings: ~3x figure5's host time per cycle;
* ``rerun``    - a grid filled into an empty artifact cache, then
  re-run against it: no compile or simulate work in the re-runs.

The seed sets the order in which the harness receives the cells (the
grid order, or the tune target order), never which cells run, so every
seed does the same work and is checked against the same pins.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench import GRIDS
from repro.experiments import runner
from repro.experiments.figure5 import figure5_specs
from repro.experiments.scaling import scaling_specs
from repro.harness import scheduler
from repro.harness.cache import ArtifactCache, code_version
from repro.harness.scheduler import HarnessError
from repro.harness.serialize import record_to_dict
from repro.harness.spec import RunSpec
from repro.tune import tune

from spans import PASS, WARM, Recorder

OUT_DIR = Path(__file__).resolve().parent / "out"

FIGURE5_SCALE = 0.1
MANYCORE_MACHINES = ("hetero-16", "manycore-32", "manycore-64")
MANYCORE_SCALE = 0.25
TUNE_TARGETS = ("compress", "go", "tomcatv")
TUNE_GA_SEED = 1
TUNE_BUDGET = 24
TUNE_POP = 8
TUNE_SCALE = 0.25
#: one integer and one fp benchmark of the CI smoke grid: a fill takes
#: a few seconds, so a run repeats it often enough to be steady
RERUN_BENCHMARKS = ("compress", "tomcatv")
#: warm re-runs of the grid after each ``rerun`` fill
RERUN_WARM = 10


@dataclass
class PassResult:
    """What one pass measured and found.

    Host seconds exclude the host-speed probes taken during the pass.
    Each speed is the host speed probed over that stretch of work, or
    None when the pass did not probe (see ``hostclock``).
    """

    #: host seconds of the whole pass
    seconds: float
    #: host seconds of the cold work that simulated ``sim_cycles``
    cold_seconds: float
    cold_speed: Optional[float]
    #: ``wall_s`` samples: the pass itself, or each warm re-run
    samples: List[float]
    sample_speeds: List[Optional[float]]
    sim_cycles: int
    sim_insts: int
    #: host seconds of each executed cell, in execution order
    cell_seconds: List[float]
    cell_speeds: List[Optional[float]]
    #: cells asked of the harness (executed or served from the cache)
    attempted: int
    failed: int
    #: pinnable facts (see ``expected.json``)
    facts: Dict = field(default_factory=dict)
    #: self-consistency failures found during the pass
    problems: List[str] = field(default_factory=list)
    #: per-layer extras (cache bytes, tune counters)
    info: Dict[str, float] = field(default_factory=dict)


def records_digest(records: Sequence) -> str:
    """sha256 over every record's sorted-key JSON, in the given order."""
    sha = hashlib.sha256()
    for record in records:
        sha.update(json.dumps(record_to_dict(record), sort_keys=True)
                   .encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


def run_cells(specs: List[RunSpec],
              cache: Optional[ArtifactCache] = None) -> Tuple[Optional[list], int]:
    """Run ``specs`` serially; ``(records, 0)`` or ``(None, failures)``.

    Looks ``run_specs`` up on the scheduler module at call time, so a
    traced run sees its wrapper.
    """
    try:
        return scheduler.run_specs(specs, jobs=1, cache=cache), 0
    except HarnessError as exc:
        return None, len(exc.failures)


def shuffled(items: Sequence, seed: int) -> Tuple[list, List[int]]:
    """``items`` in a seeded order, and the permutation that made it."""
    order = list(range(len(items)))
    random.Random(seed).shuffle(order)
    return [items[i] for i in order], order


def grid_order(records: Sequence, order: Sequence[int]) -> list:
    """Records submitted in ``order`` put back in grid order."""
    out: List = [None] * len(order)
    for position, i in enumerate(order):
        out[i] = records[position]
    return out


class Workload:
    """One named workload; subclasses define a pass."""

    name = ""
    #: cells one pass executes, which fixes the tail percentile
    cells_per_pass = 0

    @property
    def tail_pct(self) -> int:
        """Highest percentile with at least ten cells of a pass above it."""
        n = self.cells_per_pass
        return max(50, (100 * (n - 10)) // n)

    def prepare(self) -> None:
        """Work done once per process before the first pass."""

    def run_pass(self, seed: int, recorder: Recorder) -> PassResult:
        raise NotImplementedError

    def diagnostics(self, seed: int) -> Dict[str, float]:
        """Extra per-layer numbers measured once after a traced run."""
        return {}

    def check(self, result: PassResult, expected: Optional[Dict]) -> List[str]:
        """Mismatches between a pass's facts and the pinned ones."""
        if expected is None:
            return [f"{self.name}: no pins in expected.json (run --pin)"]
        return [
            f"{key}: got {result.facts.get(key)!r}, pinned {value!r}"
            for key, value in expected.items()
            if result.facts.get(key) != value
        ]

    def _cold(self, recorder: Recorder, fn: Callable) -> Tuple[object, PassResult]:
        """Run ``fn`` cold in a pass span and measure what it simulated.

        ``fn`` returns ``(value, failed)``; returns ``fn``'s value and
        the pass measured as one cold unit of work.
        """
        runner.clear_cache()
        cycles = recorder.counts["cell.cycles"]
        insts = recorder.counts["cell.insts"]
        first = len(recorder.spans)
        first_probe = len(recorder.clock.samples)
        with recorder.span(PASS) as span:
            value, failed = fn()
        runner.clear_cache()
        # Compiled products hold reference cycles; free them now so a
        # pass never inherits the previous pass's memory.
        gc.collect()
        cells = recorder.cells(first)
        seconds = span.duration - sum(recorder.clock.samples[first_probe:])
        speed = recorder.clock.speed(first_probe)
        return value, PassResult(
            seconds=seconds, cold_seconds=seconds, cold_speed=speed,
            samples=[seconds], sample_speeds=[speed],
            sim_cycles=recorder.counts["cell.cycles"] - cycles,
            sim_insts=recorder.counts["cell.insts"] - insts,
            cell_seconds=[c.duration for c in cells],
            cell_speeds=[c.speed for c in cells],
            attempted=len(cells), failed=failed,
        )


class GridWorkload(Workload):
    """A fixed grid of cells run cold with the artifact cache off."""

    def __init__(self, name: str,
                 specs: Callable[[], List[RunSpec]]) -> None:
        self.name = name
        self.specs = specs()
        self.cells_per_pass = len(self.specs)

    def run_pass(self, seed, recorder):
        ordered, order = shuffled(self.specs, seed)
        records, out = self._cold(recorder, lambda: run_cells(ordered))
        out.attempted = len(ordered)
        out.facts = {"cells": len(out.cell_seconds),
                     "sim_cycles": out.sim_cycles}
        if records is not None:
            out.facts["digest"] = records_digest(grid_order(records, order))
        return out


class TuneWorkload(Workload):
    """One fixed GA campaign over the selection space per pass."""

    name = "tune"
    cells_per_pass = 75

    def run_pass(self, seed, recorder):
        targets, _ = shuffled(TUNE_TARGETS, seed)

        def campaign():
            try:
                return tune(targets, budget=TUNE_BUDGET, pop_size=TUNE_POP,
                            scale=TUNE_SCALE, seed=TUNE_GA_SEED, jobs=1), 0
            except HarnessError as exc:
                return None, len(exc.failures)

        result, out = self._cold(recorder, campaign)
        if result is None:
            return out
        best = [result.best_records[t] for t in TUNE_TARGETS]
        base = [result.baseline_records[t] for t in TUNE_TARGETS]
        out.facts = {
            "baseline_fitness": result.baseline_fitness,
            "baseline_digest": records_digest(base),
            "best_hash": result.best_hash,
            "best_fitness": result.best_fitness,
            "best_digest": records_digest(best),
        }
        # The paper genome is in the first population and the GA is
        # elitist, so the search can never end worse than the baseline.
        if result.best_fitness > result.baseline_fitness:
            out.problems.append(
                f"best fitness {result.best_fitness} worse than baseline "
                f"{result.baseline_fitness}"
            )
        # The best genome's cells are simulated again at the end of the
        # campaign; they must reproduce the cycles the search saw.
        resimulated = {t: r.cycles for t, r in zip(TUNE_TARGETS, best)}
        if resimulated != result.best_cycles:
            out.problems.append(
                f"best genome re-simulated to {resimulated}, search saw "
                f"{result.best_cycles}"
            )
        nominal = result.generations * result.pop_size
        out.info = {
            "tune.genomes_simulated": result.evaluations,
            "tune.memo_hit_ratio": 1.0 - result.evaluations / nominal,
        }
        return out


class RerunWorkload(Workload):
    """Fill an empty artifact cache with a grid, then re-run it warm."""

    name = "rerun"

    def __init__(self) -> None:
        grid = GRIDS["smoke"]
        self.specs = figure5_specs(RERUN_BENCHMARKS, grid.configs,
                                   scale=grid.scale)[1]
        self.cells_per_pass = len(self.specs)

    def prepare(self) -> None:
        # Hashing the package sources salts every cache key; do it once
        # here rather than inside the first timed fill.
        code_version()

    def new_cache(self, tag: str) -> ArtifactCache:
        root = OUT_DIR / f"cache-{os.getpid()}-{tag}"
        shutil.rmtree(root, ignore_errors=True)
        return ArtifactCache(root)

    def run_pass(self, seed, recorder):
        ordered, order = shuffled(self.specs, seed)
        cache = self.new_cache("fill")
        fill: List[Tuple[float, Optional[float]]] = []
        warm_seconds: List[float] = []
        warm_speeds: List[Optional[float]] = []
        warm_runs: List = []

        def fill_then_rerun():
            first_probe = len(recorder.clock.samples)
            start = time.perf_counter()
            filled = run_cells(ordered, cache)
            fill.append((time.perf_counter() - start
                         - sum(recorder.clock.samples[first_probe:]),
                         recorder.clock.speed(first_probe)))
            runner.clear_cache()
            with recorder.span(WARM):
                for _ in range(RERUN_WARM):
                    start = time.perf_counter()
                    warm_runs.append(run_cells(ordered, cache))
                    warm_seconds.append(time.perf_counter() - start)
                    warm_speeds.append(recorder.probe())
            records, failed = filled
            return records, failed + sum(f for _, f in warm_runs)

        try:
            records, out = self._cold(recorder, fill_then_rerun)
            cache_bytes = cache.stats()["bytes"]
        finally:
            shutil.rmtree(cache.root, ignore_errors=True)
        out.samples, out.sample_speeds = warm_seconds, warm_speeds
        out.cold_seconds, out.cold_speed = fill[0]
        out.attempted = len(ordered) * (1 + RERUN_WARM)
        out.facts = {"cells": len(out.cell_seconds),
                     "sim_cycles": out.sim_cycles}
        out.info = {"harness.cache_bytes": cache_bytes / 1e6}
        if records is None:
            return out
        digest = records_digest(records)
        out.facts["digest"] = records_digest(grid_order(records, order))
        for number, (warm, _) in enumerate(warm_runs):
            if warm is None or records_digest(warm) != digest:
                out.problems.append(
                    f"warm re-run {number} differs from the cold fill"
                )
        return out

    def diagnostics(self, seed):
        """Fill time at ``jobs=1`` over fill time at ``jobs=min(2, nproc)``.

        A diagnostic of the harness's process pool, measured untraced
        after the traced passes; never gated.
        """
        jobs = min(2, os.cpu_count() or 1)
        ordered, _ = shuffled(self.specs, seed)
        walls = []
        for n in (1, jobs):
            cache = self.new_cache(f"jobs{n}")
            runner.clear_cache()
            start = time.perf_counter()
            try:
                scheduler.run_specs(ordered, jobs=n, cache=cache)
                walls.append(time.perf_counter() - start)
            finally:
                runner.clear_cache()
                shutil.rmtree(cache.root, ignore_errors=True)
        return {"harness.jobs2_speedup": walls[0] / walls[1]}


def _figure5_specs() -> List[RunSpec]:
    return figure5_specs(scale=FIGURE5_SCALE)[1]


def _manycore_specs() -> List[RunSpec]:
    return scaling_specs(machines=MANYCORE_MACHINES,
                         scale=MANYCORE_SCALE)[1]


def make_workloads() -> Dict[str, Workload]:
    """Every workload by name, in the order the benchmark runs them."""
    workloads: List[Workload] = [
        GridWorkload("figure5", _figure5_specs),
        TuneWorkload(),
        GridWorkload("manycore", _manycore_specs),
        RerunWorkload(),
    ]
    return {w.name: w for w in workloads}
