"""Self-healing harness tests: resume, pool degradation, quarantine.

Companion to test_harness.py, covering the recovery machinery: ledger
replay (``--resume``), ``BrokenProcessPool`` degradation to serial
execution, checksum quarantine + ``cache doctor``, and ledger schema
tolerance.
"""

import json
import multiprocessing
import os
import pickle
import warnings

import pytest

from repro.compiler import HeuristicLevel
from repro.experiments import clear_cache
from repro.harness import (
    LEDGER_SCHEMA_VERSION,
    ArtifactCache,
    LedgerEntry,
    RunLedger,
    RunSpec,
    completed_spec_hashes,
    read_ledger,
    run_specs,
)

SMALL = 0.1


@pytest.fixture(autouse=True)
def _fresh_compile_cache():
    clear_cache()
    yield
    clear_cache()


def grid_specs():
    """Four cells in two compile groups (two heuristic levels)."""
    return [
        RunSpec("compress", level, n_pus=n, scale=SMALL)
        for level in (HeuristicLevel.CONTROL_FLOW, HeuristicLevel.BASIC_BLOCK)
        for n in (2, 4)
    ]


# -- injectable fake workers (module-level so they are picklable) ------

def _pool_only_crash_worker(spec):
    """Kill the hosting process — but only inside a pool child.

    In the serial degradation path (main process) it succeeds, which
    is exactly the behaviour of a worker OOM-killed under memory
    pressure that fits fine when run alone.
    """
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return ("ok", spec.benchmark, spec.level.value, spec.n_pus)


class TestResume:
    def test_resume_executes_only_missing_cells(self, tmp_path):
        specs = grid_specs()
        cache = ArtifactCache(tmp_path, salt="s")
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        # First (interrupted) run finished only the first compile group.
        run_specs(specs[:2], jobs=1, cache=cache, ledger=ledger)
        clear_cache()

        run_specs(specs, jobs=1, cache=cache, ledger=ledger, resume=True)
        entries = read_ledger(tmp_path / "ledger.jsonl")
        labels = [e["cache"] for e in entries[2:]]
        assert sorted(labels) == ["miss", "miss", "resume", "resume"]
        done = completed_spec_hashes(tmp_path / "ledger.jsonl")
        assert {spec.spec_hash("s") for spec in specs} <= done

    def test_resume_with_no_prior_ledger_runs_everything(self, tmp_path):
        specs = grid_specs()[:2]
        cache = ArtifactCache(tmp_path, salt="s")
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        run_specs(specs, jobs=1, cache=cache, ledger=ledger, resume=True)
        entries = read_ledger(tmp_path / "ledger.jsonl")
        assert [e["cache"] for e in entries] == ["miss", "miss"]

    def test_failed_cells_are_not_resumed(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"spec_hash": "aaa", "outcome": "ok"}) + "\n")
            handle.write(json.dumps(
                {"spec_hash": "bbb", "outcome": "error"}) + "\n")
            handle.write(json.dumps(
                {"spec_hash": "ccc", "outcome": "timeout"}) + "\n")
        assert completed_spec_hashes(path) == {"aaa"}


class TestPoolDegradation:
    def test_broken_pool_finishes_serially(self, tmp_path):
        specs = grid_specs()
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        out = run_specs(specs, jobs=2, worker=_pool_only_crash_worker,
                        ledger=ledger)
        assert out == [
            ("ok", s.benchmark, s.level.value, s.n_pus) for s in specs
        ]
        entries = read_ledger(tmp_path / "ledger.jsonl")
        events = [e for e in entries if e.get("event") == "pool_broken"]
        assert len(events) == 1
        assert events[0]["degraded_groups"] >= 1
        finished = [e for e in entries if "spec_hash" in e]
        assert len(finished) == len(specs)
        assert all(e["outcome"] == "ok" for e in finished)

    def test_broken_pool_without_ledger_still_degrades(self):
        specs = grid_specs()[:2]
        out = run_specs(specs, jobs=2, worker=_pool_only_crash_worker)
        assert all(r[0] == "ok" for r in out)


class TestQuarantine:
    def _seed_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path, salt="s")
        specs = grid_specs()[:1]
        run_specs(specs, jobs=1, cache=cache)
        clear_cache()
        return cache, specs[0]

    def test_checksum_mismatch_quarantined_with_one_warning(self, tmp_path):
        cache, spec = self._seed_cache(tmp_path)
        for path in cache.records_dir.glob("*.pkl"):
            raw = bytearray(path.read_bytes())
            raw[-1] ^= 0xFF  # flip a payload byte under the checksum
            path.write_bytes(bytes(raw))
        fresh = ArtifactCache(tmp_path, salt="s")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert fresh.get_record(spec) is None
        assert fresh.stats()["quarantined"] == 1
        assert not list(cache.records_dir.glob("*.pkl"))

    def test_second_corruption_warns_only_once(self, tmp_path):
        cache, spec = self._seed_cache(tmp_path)
        for path in cache.records_dir.glob("*.pkl"):
            path.write_bytes(b"\x80garbage")
        for path in cache.compiled_dir.glob("*.pkl"):
            path.write_bytes(b"\x80garbage")
        fresh = ArtifactCache(tmp_path, salt="s")
        with pytest.warns(RuntimeWarning):
            fresh.get_record(spec)
        with warnings.catch_warnings(record=True) as captured:
            warnings.simplefilter("always")
            fresh.get_compiled(spec)
        assert not [w for w in captured
                    if issubclass(w.category, RuntimeWarning)]
        assert fresh.stats()["quarantined"] == 2

    def test_unframed_entry_is_quarantined(self, tmp_path):
        """Every writer frames its entries, so a bare pickle is
        corruption: it is moved aside, never unpickled unverified."""
        cache, spec = self._seed_cache(tmp_path)
        record = cache.get_record(spec)
        path = cache.records_dir / f"{spec.spec_hash('s')}.pkl"
        path.write_bytes(pickle.dumps(record))
        with pytest.warns(RuntimeWarning, match="no RPC1 frame"):
            assert cache.get_record(spec) is None
        assert not path.exists()
        assert cache.stats()["quarantined"] == 1

    def test_doctor_quarantines_unframed_and_corrupt(self, tmp_path):
        cache, spec = self._seed_cache(tmp_path)
        unframed = cache.records_dir / "unframed.pkl"
        unframed.write_bytes(pickle.dumps({"x": 1}))
        corrupt = cache.compiled_dir / "corrupt.pkl"
        corrupt.write_bytes(b"\x80garbage")

        with pytest.warns(RuntimeWarning):
            report = cache.doctor()
        assert report["quarantined"] == 2
        assert report["ok"] >= 1
        assert report["checked"] == (
            report["ok"] + report["quarantined"] + report["stale"]
        )
        assert not unframed.exists() and not corrupt.exists()
        # A second pass finds a fully healthy store.
        assert cache.doctor()["quarantined"] == 0

    def test_clear_also_empties_quarantine(self, tmp_path):
        cache, spec = self._seed_cache(tmp_path)
        for path in cache.records_dir.glob("*.pkl"):
            path.write_bytes(b"\x80garbage")
        with pytest.warns(RuntimeWarning):
            ArtifactCache(tmp_path, salt="s").get_record(spec)
        cache.clear()
        assert cache.stats() == {
            "records": 0, "compiled": 0, "quarantined": 0, "bytes": 0,
            "records_bytes": 0, "compiled_bytes": 0,
            "ledger_lines": 0, "ledger_bytes": 0,
        }


class TestLedgerSchema:
    def test_entries_carry_schema_version(self, tmp_path):
        specs = grid_specs()[:1]
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        run_specs(specs, jobs=1, ledger=ledger)
        entries = read_ledger(tmp_path / "ledger.jsonl")
        assert entries
        assert all(
            e["schema_version"] == LEDGER_SCHEMA_VERSION for e in entries
        )

    def test_from_dict_tolerates_unknown_fields(self):
        entry = LedgerEntry.from_dict({
            "spec_hash": "abc", "outcome": "error",
            "schema_version": 99, "field_from_the_future": {"deep": True},
        })
        assert entry.spec_hash == "abc"
        assert entry.outcome == "error"
        assert entry.cache == "miss"  # neutral default for missing field

    def test_from_dict_survives_empty_payload(self):
        entry = LedgerEntry.from_dict({})
        assert entry.spec_hash == ""
        assert entry.error is None

    def test_event_lines_ignored_by_spec_readers(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.event("pool_broken", error="x", degraded_groups=2)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"spec_hash": "abc", "outcome": "ok"}) + "\n")
            handle.write("{torn line\n")
        assert completed_spec_hashes(path) == {"abc"}
        entries = read_ledger(path)
        assert len(entries) == 2  # the torn line is skipped, events kept
