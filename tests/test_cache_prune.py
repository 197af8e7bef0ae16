"""LRU cache pruning (``repro cache prune --max-bytes N``)."""

from __future__ import annotations

import os
import time

import pytest

from repro.compiler import HeuristicLevel
from repro.harness.cache import ArtifactCache
from repro.harness.scheduler import run_specs
from repro.harness.spec import RunSpec


def _age(path, seconds):
    """Backdate a file's mtime (prune orders by it)."""
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


def _fill(cache, n=4):
    """n record files of known content + ages (oldest first)."""
    paths = []
    for i in range(n):
        path = cache.records_dir / f"{'%08x' % i}{'0' * 56}.pkl"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"x" * 100)
        _age(path, (n - i) * 3600)
        paths.append(path)
    return paths


def test_prune_removes_oldest_first(tmp_path):
    cache = ArtifactCache(root=tmp_path)
    paths = _fill(cache, 4)
    report = cache.prune(max_bytes=250)
    assert report["removed"] == 2
    assert report["freed_bytes"] == 200
    assert report["kept"] == 2
    assert report["kept_bytes"] == 200
    # the two oldest are gone, the two newest survive
    assert not paths[0].exists() and not paths[1].exists()
    assert paths[2].exists() and paths[3].exists()


def test_prune_zero_evicts_everything(tmp_path):
    cache = ArtifactCache(root=tmp_path)
    _fill(cache, 3)
    report = cache.prune(max_bytes=0)
    assert report["removed"] == 3
    assert report["kept"] == 0
    assert cache.stats()["records"] == 0


def test_prune_noop_under_limit(tmp_path):
    cache = ArtifactCache(root=tmp_path)
    _fill(cache, 2)
    report = cache.prune(max_bytes=10_000)
    assert report["removed"] == 0
    assert report["kept"] == 2


def test_prune_rejects_negative_limit(tmp_path):
    with pytest.raises(ValueError):
        ArtifactCache(root=tmp_path).prune(max_bytes=-1)


def test_prune_spares_quarantine_and_ledger(tmp_path):
    cache = ArtifactCache(root=tmp_path)
    _fill(cache, 2)
    quarantined = cache.quarantine_dir / "bad.pkl"
    quarantined.parent.mkdir(parents=True, exist_ok=True)
    quarantined.write_bytes(b"q" * 500)
    _age(quarantined, 10 * 3600)
    cache.ledger_path.write_text('{"seq": 0}\n')
    _age(cache.ledger_path, 10 * 3600)
    cache.prune(max_bytes=0)
    # everything prunable is gone; quarantine + ledger are untouched
    assert cache.stats()["records"] == 0
    assert quarantined.exists()
    assert cache.ledger_path.exists()


def test_read_touches_mtime_so_hot_entries_survive(tmp_path):
    """A cache hit refreshes the artifact's mtime, so prune evicts by
    least-recent *use*, not least-recent write."""
    cache = ArtifactCache(root=tmp_path)
    spec_old = RunSpec(benchmark="compress",
                       level=HeuristicLevel.BASIC_BLOCK,
                       n_pus=4, out_of_order=True, scale=0.05)
    spec_new = RunSpec(benchmark="compress",
                       level=HeuristicLevel.BASIC_BLOCK,
                       n_pus=8, out_of_order=True, scale=0.05)
    run_specs([spec_old, spec_new], jobs=1, cache=cache)
    old_path = cache.records_dir / f"{spec_old.spec_hash(cache.salt)}.pkl"
    new_path = cache.records_dir / f"{spec_new.spec_hash(cache.salt)}.pkl"
    # make spec_old the stale one...
    _age(old_path, 10 * 3600)
    _age(new_path, 5 * 3600)
    # ...then *use* it: the hit touches its mtime
    assert cache.get_record(spec_old) is not None
    size = max(old_path.stat().st_size, new_path.stat().st_size)
    kept_budget = old_path.stat().st_size + size  # roomy enough for 1
    report = cache.prune(max_bytes=old_path.stat().st_size)
    assert report["removed"] >= 1
    assert old_path.exists()      # recently used: survives
    assert not new_path.exists()  # least recently used: evicted
    del kept_budget


def test_stats_reports_split_byte_counts(tmp_path):
    cache = ArtifactCache(root=tmp_path)
    _fill(cache, 2)
    stats = cache.stats()
    assert stats["records_bytes"] == 200
    assert stats["records"] == 2
    assert stats["compiled_bytes"] == 0
    assert stats["bytes"] >= stats["records_bytes"]
