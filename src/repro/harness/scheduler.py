"""Job-graph scheduler: group by compile key, fan out, recover.

The dependence structure of every paper artefact is known statically:
cells sharing a ``(benchmark, scale, selection, input)`` tuple share
one compilation (partition / trace / task stream), and everything
else is independent.  :func:`run_specs` exploits exactly that shape:

1. resolve **record cache hits** up front (no work scheduled) —
   with ``resume=True`` the run ledger is replayed first, so an
   interrupted grid restarts by executing only its missing cells;
2. group the misses by compile signature;
3. run each group as one job — compile once (warm-started from the
   persistent compiled-artifact cache when possible), then simulate
   every machine configuration in the group;
4. fan groups out over a ``ProcessPoolExecutor`` (``jobs`` workers,
   default ``os.cpu_count()``); ``jobs=1`` degrades to a plain
   in-process loop with no pool, byte-identical to the historical
   serial path.

A group that raises is recorded once (ledger ``outcome: error``) and
the rest of the grid still runs: the simulator is deterministic, so
running the group again would only repeat the failure.  Once the
whole grid has run, :class:`HarnessError` names every failed cell.
A dying worker pool (``BrokenProcessPool`` — e.g. a worker
OOM-killed) does not fail the remaining groups: the event is logged
to the ledger and the rest of the grid finishes serially in-process.

Results come back aligned with the input specs; :func:`run_keyed`
zips them onto a grid's keys.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.experiments.runner import (
    RunRecord,
    compile_cache_key,
    peek_compiled,
    run_benchmark,
    seed_compiled,
)
from repro.harness.cache import ArtifactCache
from repro.harness.ledger import (
    LedgerEntry,
    RunLedger,
    completed_spec_hashes,
)
from repro.harness.spec import RunSpec

#: a worker maps one spec to one record (injectable for tests)
Worker = Callable[[RunSpec], RunRecord]

#: (group member index into the grid, its spec)
Group = List[Tuple[int, RunSpec]]


class HarnessError(RuntimeError):
    """One or more jobs failed; ``failures`` pairs each spec with why."""

    def __init__(self, failures: Sequence[Tuple[RunSpec, str]]) -> None:
        self.failures = list(failures)
        lines = [f"{len(self.failures)} job(s) failed:"]
        lines += [f"  {spec.describe()}: {reason}"
                  for spec, reason in self.failures]
        super().__init__("\n".join(lines))


def execute_spec(spec: RunSpec) -> RunRecord:
    """The default worker: the canonical pipeline for one cell."""
    return run_benchmark(
        spec.benchmark,
        spec.level,
        n_pus=spec.n_pus,
        out_of_order=spec.out_of_order,
        scale=spec.scale,
        selection=spec.selection,
        sim=spec.sim,
        input_set=spec.input_set,
        profile_input=spec.profile_input,
    )


def _run_group(
    specs: Sequence[RunSpec],
    worker: Worker,
    cache: Optional[ArtifactCache],
) -> List[Tuple[RunRecord, float]]:
    """Execute one compile group; runs inside a worker process.

    With the default worker, the group's compilation is warm-started
    from the persistent cache and, when freshly built, written back —
    so sibling groups in later sweeps (and crashed runs) reuse it.
    """
    use_artifacts = cache is not None and worker is execute_spec
    key = None
    seeded = False
    if use_artifacts:
        first = specs[0]
        key = compile_cache_key(
            first.benchmark,
            first.level,
            first.scale,
            first.selection,
            first.input_set,
            first.profile_input,
        )
        compiled = cache.get_compiled(first)
        if compiled is not None:
            seed_compiled(key, compiled)
            seeded = True
    out: List[Tuple[RunRecord, float]] = []
    for spec in specs:
        start = time.perf_counter()
        record = worker(spec)
        out.append((record, time.perf_counter() - start))
    if use_artifacts and not seeded:
        compiled = peek_compiled(key)
        if compiled is not None:
            cache.put_compiled(specs[0], compiled)
    return out


def _group_by_compile(indexed: Group) -> List[Group]:
    """Partition (index, spec) pairs by compile signature, stably."""
    groups: Dict[Tuple, Group] = {}
    order: List[Tuple] = []
    for index, spec in indexed:
        signature = spec.compile_signature()
        if signature not in groups:
            groups[signature] = []
            order.append(signature)
        groups[signature].append((index, spec))
    return [groups[signature] for signature in order]


def run_specs(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = None,
    cache: Optional[ArtifactCache] = None,
    ledger: Optional[RunLedger] = None,
    worker: Optional[Worker] = None,
    resume: bool = False,
) -> List[RunRecord]:
    """Run every spec, returning records aligned with ``specs``.

    ``jobs`` defaults to ``os.cpu_count()``; ``jobs=1`` runs serially
    in-process (no pool, no pickling).  ``resume`` replays the ledger
    and skips cells it records as complete (their records come from
    the cache; ledger label ``"resume"``).  ``worker`` replaces
    :func:`execute_spec`; tests inject fakes through it.

    A group that raises is recorded once and the grid goes on; after
    the whole grid has run, :class:`HarnessError` names every failed
    cell.  A worker pool that dies mid-grid (``BrokenProcessPool``)
    is logged to the ledger and the unfinished groups complete
    serially in-process.
    """
    specs = list(specs)
    worker = worker or execute_spec
    jobs = jobs if jobs and jobs > 0 else (os.cpu_count() or 1)
    results: List[Optional[RunRecord]] = [None] * len(specs)
    # Only ledger lines carry spec hashes (the cache hashes its own).
    hashes: List[str] = []
    resumed_hashes = set()
    if ledger is not None:
        salt = cache.salt if cache is not None else ""
        hashes = [spec.spec_hash(salt) for spec in specs]
        if resume:
            resumed_hashes = completed_spec_hashes(ledger.path)
        ledger.open_run(len(specs))

    pending: Group = []
    for i, spec in enumerate(specs):
        record = cache.get_record(spec) if cache is not None else None
        if record is not None:
            results[i] = record
            if ledger is not None:
                status = "resume" if hashes[i] in resumed_hashes else "hit"
                ledger.record(LedgerEntry.for_spec(
                    spec, hashes[i], cache=status, outcome="ok",
                    wall_seconds=0.0,
                    metrics=getattr(record, "metrics", None),
                ))
        else:
            pending.append((i, spec))

    failures: List[Tuple[RunSpec, str]] = []

    def commit(group: Group, pairs: List[Tuple[RunRecord, float]]) -> None:
        for (i, spec), (record, wall) in zip(group, pairs):
            results[i] = record
            if cache is not None:
                cache.put_record(spec, record)
            if ledger is not None:
                ledger.record(LedgerEntry.for_spec(
                    spec, hashes[i], cache="miss", outcome="ok",
                    wall_seconds=wall,
                    metrics=getattr(record, "metrics", None),
                ))

    def fail(group: Group, exc: BaseException) -> None:
        reason = repr(exc)
        for i, spec in group:
            failures.append((spec, reason))
            if ledger is not None:
                ledger.record(LedgerEntry.for_spec(
                    spec, hashes[i], cache="miss", outcome="error",
                    wall_seconds=0.0, error=reason,
                ))

    groups = _group_by_compile(pending)
    if jobs > 1:
        groups = _run_pool(groups, worker, cache, ledger, jobs, commit, fail)
    for group in groups:
        try:
            pairs = _run_group([spec for _, spec in group], worker, cache)
        except Exception as exc:  # noqa: BLE001 — recorded, grid goes on
            fail(group, exc)
        else:
            commit(group, pairs)

    if failures:
        raise HarnessError(failures)
    return results  # type: ignore[return-value]  # all slots filled above


def _run_pool(
    groups: List[Group],
    worker: Worker,
    cache: Optional[ArtifactCache],
    ledger: Optional[RunLedger],
    jobs: int,
    commit: Callable,
    fail: Callable,
) -> List[Group]:
    """Run ``groups`` on a process pool; returns the groups left to run.

    A broken pool (worker process killed) ends pool mode: the event is
    logged and every group not yet committed is handed back to the
    caller to finish in-process.
    """
    if not groups:
        return []
    pool = ProcessPoolExecutor(max_workers=jobs)
    try:
        futures = [
            pool.submit(_run_group, [spec for _, spec in group], worker,
                        cache)
            for group in groups
        ]
        for g, future in enumerate(futures):
            try:
                pairs = future.result()
            except BrokenExecutor as exc:
                if ledger is not None:
                    ledger.event("pool_broken", error=repr(exc),
                                 degraded_groups=len(groups) - g)
                return groups[g:]
            except Exception as exc:  # noqa: BLE001 — recorded, grid goes on
                fail(groups[g], exc)
            else:
                commit(groups[g], pairs)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return []


def run_keyed(
    keys: Sequence[Hashable],
    specs: Sequence[RunSpec],
    jobs: Optional[int] = 1,
    cache: Optional[ArtifactCache] = None,
    ledger: Optional[RunLedger] = None,
    resume: bool = False,
) -> Dict:
    """Run a grid's ``(keys, specs)`` and key its records.

    Every ``*_specs`` builder in :mod:`repro.experiments` returns such
    a pair, so ``run_keyed(*figure5_specs(...))`` is the Figure 5
    driver.  ``jobs`` defaults to 1, the serial in-process path; the
    rest is :func:`run_specs`.
    """
    records = run_specs(specs, jobs=jobs, cache=cache, ledger=ledger,
                        resume=resume)
    return dict(zip(keys, records))
