"""Concurrent ledger appends: no interleaved partial JSON lines.

Several processes can append to one ledger file (two grids run
against one artifact cache).  Appends are single ``os.write`` calls on an
``O_APPEND`` descriptor, which POSIX guarantees are atomic with
respect to other appenders — lines may reorder across writers, but
they can never splice into each other.  The readers (schema 2 and 3
tolerant) skip a torn tail rather than failing the whole file.
"""

from __future__ import annotations

import json
import multiprocessing
import os

from repro.harness.ledger import (
    LEDGER_SCHEMA_VERSION,
    LedgerEntry,
    RunLedger,
    append_jsonl_line,
    read_ledger,
)

LINES_PER_WRITER = 200


def _entry(spec_hash: str, cache: str = "miss") -> LedgerEntry:
    return LedgerEntry(
        spec_hash=spec_hash, job=f"job-{spec_hash}", benchmark="bench",
        level="basic_block", n_pus=4, out_of_order=True, cache=cache,
        retries=0, outcome="ok", wall_seconds=0.01,
    )


def _writer(path: str, writer_id: int, n: int) -> None:
    for i in range(n):
        append_jsonl_line(path, {
            "writer": writer_id,
            "i": i,
            # bulk the payload so a torn write would be conspicuous
            "pad": "x" * 100,
        })


def test_two_process_writers_never_interleave(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ctx = multiprocessing.get_context("spawn")
    procs = [
        ctx.Process(target=_writer, args=(str(path), wid,
                                          LINES_PER_WRITER))
        for wid in (1, 2)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(60)
        assert proc.exitcode == 0
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 * LINES_PER_WRITER
    seen = {1: [], 2: []}
    for line in lines:
        entry = json.loads(line)  # every line parses — no splicing
        assert entry["pad"] == "x" * 100
        seen[entry["writer"]].append(entry["i"])
    # each writer's own lines appear in its program order
    assert seen[1] == list(range(LINES_PER_WRITER))
    assert seen[2] == list(range(LINES_PER_WRITER))


def test_two_ledger_objects_share_one_file(tmp_path):
    """Two RunLedger handles on one path (two grids sharing one
    cache) both append; the merged file stays fully parseable."""
    path = tmp_path / "ledger.jsonl"
    a = RunLedger(path, progress=None)
    b = RunLedger(path, progress=None)
    for i in range(5):
        a.record(_entry(f"spec-a{i}"))
        b.record(_entry(f"spec-b{i}"))
    entries = read_ledger(path)
    assert len(entries) == 10
    assert {e["spec_hash"] for e in entries} == {
        f"spec-{w}{i}" for w in "ab" for i in range(5)
    }
    assert all(
        e["schema_version"] == LEDGER_SCHEMA_VERSION for e in entries
    )


def test_torn_tail_is_skipped_not_fatal(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = RunLedger(path, progress=None)
    ledger.record(_entry("spec-1"))
    ledger.record(_entry("spec-2", cache="hit"))
    # simulate a crash mid-append: a final line with no newline and
    # truncated JSON
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(
            '{"schema_version": 3, "outcome": "ok", "spec_hash": "sp'
        )
    entries = read_ledger(path)
    assert [e["spec_hash"] for e in entries] == ["spec-1", "spec-2"]
    assert [e["outcome"] for e in entries] == ["ok", "ok"]


def test_schema2_lines_still_read(tmp_path):
    """Readers tolerate entries written by the previous schema
    (no seq field) mixed into the same file."""
    path = tmp_path / "ledger.jsonl"
    append_jsonl_line(path, {
        "schema_version": 2, "outcome": "ok", "spec_hash": "old-spec",
        "job": "bench/basic_block@4pu-ooo", "cache": "miss",
    })
    ledger = RunLedger(path, progress=None)
    ledger.record(_entry("new-spec"))
    entries = read_ledger(path)
    assert [e["spec_hash"] for e in entries] == ["old-spec", "new-spec"]
    assert [e.get("seq") for e in entries] == [None, 0]


def test_append_creates_parent_dirs(tmp_path):
    path = tmp_path / "deep" / "nested" / "ledger.jsonl"
    append_jsonl_line(path, {"hello": 1})
    assert json.loads(path.read_text())["hello"] == 1


def test_append_is_single_write(tmp_path, monkeypatch):
    """The concurrency guarantee rests on one os.write per line."""
    calls = []
    real_write = os.write

    def counting_write(fd, data):
        calls.append(data)
        return real_write(fd, data)

    monkeypatch.setattr(os, "write", counting_write)
    append_jsonl_line(tmp_path / "l.jsonl", {"k": "v"})
    assert len(calls) == 1
    assert calls[0].endswith(b"\n")
