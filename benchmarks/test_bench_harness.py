"""Harness benchmarks (experiment id: harness).

Measures a small Figure-5 sub-grid through ``repro.harness`` in three
regimes — cold cache (compile + trace + simulate), warm cache (pure
artifact replay), and a two-worker process pool — and proves the
warm-cache run never re-enters the interpreter: every ledger entry is
a cache hit and the in-memory compilation cache stays empty.
"""

import time

import pytest

from benchmarks.conftest import bench_scale, bench_subset, publish
from repro.compiler import HeuristicLevel
from repro.experiments import clear_cache
from repro.experiments.figure5 import Figure5Result, figure5_specs
from repro.experiments.runner import _compile_cache
from repro.harness import ArtifactCache, RunLedger, read_ledger, run_keyed

SUBGRID_LEVELS = (HeuristicLevel.BASIC_BLOCK, HeuristicLevel.DATA_DEPENDENCE)
SUBGRID_CONFIGS = [(4, True), (8, True)]


def _names():
    return bench_subset() or ["compress", "go"]


def _run(cache, ledger_path, jobs):
    keys, specs = figure5_specs(_names(), SUBGRID_CONFIGS, SUBGRID_LEVELS,
                                scale=bench_scale())
    return Figure5Result(run_keyed(keys, specs, jobs=jobs, cache=cache,
                                   ledger=RunLedger(ledger_path)))


def test_bench_harness_cold(benchmark, results_dir, tmp_path):
    cache = ArtifactCache(tmp_path / "cache", salt="bench")

    def setup():
        clear_cache()
        cache.clear()

    result = benchmark.pedantic(
        lambda: _run(cache, tmp_path / "ledger.jsonl", jobs=1),
        setup=setup, rounds=1, iterations=1,
    )
    entries = read_ledger(tmp_path / "ledger.jsonl")
    assert all(e["cache"] == "miss" for e in entries)
    assert len(result.records) == len(entries)


def test_bench_harness_warm(benchmark, results_dir, tmp_path):
    cache = ArtifactCache(tmp_path / "cache", salt="bench")
    cold_start = time.perf_counter()
    cold = _run(cache, tmp_path / "prime.jsonl", jobs=1)
    cold_seconds = time.perf_counter() - cold_start
    clear_cache()  # drop in-memory compilations: artifacts only

    warm = benchmark.pedantic(
        lambda: _run(cache, tmp_path / "warm.jsonl", jobs=1),
        rounds=1, iterations=1,
    )
    assert warm.records == cold.records
    # No re-tracing: every job was an artifact hit and nothing was
    # recompiled (the interpreter only runs inside compile_benchmark).
    entries = read_ledger(tmp_path / "warm.jsonl")
    assert entries and all(e["cache"] == "hit" for e in entries)
    assert not _compile_cache.compiled
    warm_seconds = sum(e["wall_seconds"] for e in entries) or 1e-9
    publish(
        results_dir,
        "harness_cold_vs_warm.txt",
        "\n".join([
            "== harness: cold vs warm cache (Figure-5 sub-grid) ==",
            f"grid          : {sorted({k[0] for k in warm.records})} "
            f"x {[l.value for l in SUBGRID_LEVELS]} x {SUBGRID_CONFIGS}",
            f"cold run      : {cold_seconds:8.2f} s ({len(entries)} jobs)",
            f"warm ledger   : all {len(entries)} jobs cache hits, "
            "0 recompilations",
        ]),
    )


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "jobs2"])
def test_bench_harness_parallelism(benchmark, results_dir, tmp_path, jobs):
    def setup():
        clear_cache()

    result = benchmark.pedantic(
        lambda: _run(None, tmp_path / f"jobs{jobs}.jsonl", jobs=jobs),
        setup=setup, rounds=1, iterations=1,
    )
    # jobs=2 must produce the identical record grid.
    clear_cache()
    serial = _run(None, tmp_path / "check.jsonl", jobs=1)
    assert result.records == serial.records
