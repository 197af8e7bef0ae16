"""The perf-smoke gate: regression checks and baseline merges.

``repro bench --check`` fails CI through ``check_regression`` and
``repro bench --update`` re-times ``BENCH_sim.json`` through
``merge_into_baseline``; both are pinned here on hand-made records.
The one grid timed is ``micro``, on both engines.
"""

import json
import subprocess

from repro.bench import (
    check_regression,
    git_commit,
    merge_into_baseline,
    run_bench,
)


def entry(grid, engine, wall_s, sim_cycles=1000, commit="aaaaaaa"):
    return {
        "grid": grid, "engine": engine, "wall_s": wall_s, "cells": 4,
        "sim_cycles": sim_cycles, "cycles_per_s": sim_cycles / wall_s,
        "commit": commit,
    }


def record(*entries, commit="aaaaaaa"):
    return {
        "schema": 1, "commit": commit, "python": "3.11.7",
        "grids": {f"{e['grid']}@{e['engine']}": e for e in entries},
    }


class TestCheckRegression:
    def test_wall_time_over_tolerance_is_flagged(self):
        base = record(entry("smoke", "fast", 4.0))
        within = record(entry("smoke", "fast", 4.9))
        over = record(entry("smoke", "fast", 5.1))
        assert check_regression(within, base) == []
        problems = check_regression(over, base)
        assert len(problems) == 1
        assert problems[0].startswith("smoke@fast: wall time 5.10s")
        assert "limit 5.00s" in problems[0]

    def test_cycle_drift_is_flagged(self):
        base = record(entry("smoke", "reference", 6.0, sim_cycles=1000))
        drift = record(entry("smoke", "reference", 6.0, sim_cycles=1001))
        problems = check_regression(drift, base)
        assert len(problems) == 1
        assert "simulated 1001 cycles, baseline recorded 1000" in (
            problems[0]
        )

    def test_pair_on_one_side_only_is_ignored(self):
        base = record(entry("smoke", "fast", 1.0),
                      entry("figure5", "reference", 1.0))
        current = record(entry("smoke", "fast", 1.0),
                         entry("micro", "fast", 99.0, sim_cycles=7))
        assert check_regression(current, base) == []


def test_micro_grid_engines_agree():
    """Both engines time the micro grid cold and, being bit-identical,
    simulate the same cycles over the same cells."""
    record = run_bench(grids=("micro",), engines=("fast", "reference"))
    fast = record["grids"]["micro@fast"]
    reference = record["grids"]["micro@reference"]
    assert fast["sim_cycles"] == reference["sim_cycles"] > 0
    assert fast["cells"] == reference["cells"] > 0


class TestMergeIntoBaseline:
    def _write(self, path, rec):
        path.write_text(json.dumps(rec))

    def test_partial_merge_keeps_other_entries_and_commits(self, tmp_path):
        path = tmp_path / "BENCH_sim.json"
        old = record(
            entry("smoke", "fast", 1.0, commit="old0001"),
            entry("smoke", "reference", 6.0, commit="old0001"),
            entry("figure5", "fast", 9.0, commit="old0001"),
            commit="old0001",
        )
        # A baseline written before entries carried their own commit.
        del old["grids"]["figure5@fast"]["commit"]
        self._write(path, old)

        new = record(entry("smoke", "reference", 9.0, commit="new0002"),
                     commit="new0002")
        merged = merge_into_baseline(str(path), new)

        assert merged == json.loads(path.read_text())
        grids = merged["grids"]
        assert grids["smoke@reference"]["wall_s"] == 9.0
        assert grids["smoke@reference"]["commit"] == "new0002"
        assert grids["smoke@fast"] == entry("smoke", "fast", 1.0,
                                            commit="old0001")
        assert grids["figure5@fast"] == entry("figure5", "fast", 9.0,
                                              commit="old0001")
        assert merged["commit"] == "new0002"

    def test_no_speedup_across_commits(self, tmp_path):
        path = tmp_path / "BENCH_sim.json"
        old = record(
            entry("smoke", "fast", 1.0, commit="old0001"),
            entry("smoke", "reference", 6.0, commit="old0001"),
            commit="old0001",
        )
        old["speedup"] = {"smoke": 6.0}
        self._write(path, old)
        merged = merge_into_baseline(str(path), record(
            entry("smoke", "reference", 9.0, commit="new0002"),
            commit="new0002",
        ))
        assert "speedup" not in merged

        # Re-timing the other engine at the same commit pairs them again.
        merged = merge_into_baseline(str(path), record(
            entry("smoke", "fast", 1.5, commit="new0002"),
            commit="new0002",
        ))
        assert merged["speedup"] == {"smoke": 6.0}


def test_commit_stamp_marks_uncommitted_code(tmp_path, monkeypatch):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=tmp_path, check=True,
                       capture_output=True)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    assert git_commit() == "unknown"
    (tmp_path / "f.txt").write_text("a\n")
    git("init", "-q")
    git("add", "f.txt")
    git("commit", "-q", "-m", "one")
    head = git_commit()
    assert head != "unknown" and not head.endswith("-dirty")
    (tmp_path / "f.txt").write_text("b\n")
    assert git_commit() == head + "-dirty"
