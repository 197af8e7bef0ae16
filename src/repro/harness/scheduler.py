"""Job-graph scheduler: group by compile key, fan out, retry, recover.

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
   default ``os.cpu_count()``), with a per-job timeout and a bounded
   retry (exponential backoff with full jitter between attempts);
   ``jobs=1`` degrades to a plain in-process loop with no pool,
   byte-identical to the historical serial path.

The scheduler is self-healing: a dying worker pool
(``BrokenProcessPool`` — e.g. a worker OOM-killed) no longer fails
every remaining group.  The event is logged to the ledger and the
rest of the grid finishes serially in-process.

Results come back aligned with the input specs, so callers rebuild
their keyed grids with ``zip``.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    TimeoutError as FutureTimeout,
)
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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

#: re-raised per group after retries are exhausted
class HarnessError(RuntimeError):
    """One or more jobs failed after all retries."""

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


def backoff_delay(attempt: int, base: float, cap: float = 30.0,
                  rng: Optional[random.Random] = None) -> float:
    """Full-jitter exponential backoff: uniform in [0, base * 2^attempt].

    ``attempt`` counts completed failures (0 for the first retry).
    Jitter decorrelates retries across concurrent grids so a shared
    bottleneck (disk, memory pressure) is not re-hit in lockstep.
    """
    if base <= 0:
        return 0.0
    span = min(cap, base * (2 ** attempt))
    return (rng or random).uniform(0.0, span)


def _sleep_backoff(attempt: int, base: float, cap: float) -> None:
    delay = backoff_delay(attempt, base, cap)
    if delay > 0:
        time.sleep(delay)


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


def _group_by_compile(
    indexed: Sequence[Tuple[int, RunSpec]],
) -> List[List[Tuple[int, RunSpec]]]:
    """Partition (index, spec) pairs by compile signature, stably."""
    groups: Dict[Tuple, List[Tuple[int, RunSpec]]] = {}
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
    timeout: Optional[float] = None,
    retries: int = 1,
    worker: Optional[Worker] = None,
    use_threads: bool = False,
    resume: bool = False,
    backoff: float = 0.0,
    backoff_cap: float = 30.0,
) -> List[RunRecord]:
    """Run every spec, returning records aligned with ``specs``.

    ``jobs`` defaults to ``os.cpu_count()``; ``jobs=1`` runs serially
    in-process (no pool, no pickling — the graceful fallback).
    ``timeout`` bounds each group job's wall time (pool mode only; a
    timed-out job counts as a transient failure).  ``retries`` is the
    number of *re*-submissions allowed per job; ``backoff`` > 0 sleeps
    a full-jitter exponential delay (capped at ``backoff_cap``
    seconds) before each one.  ``resume`` replays the ledger and skips
    cells it records as complete (their records come from the cache;
    ledger label ``"resume"``).  ``use_threads`` swaps the process
    pool for threads — meant for tests injecting unpicklable fake
    workers, not for throughput.

    A worker pool that dies mid-grid (``BrokenProcessPool``) is logged
    to the ledger and the unfinished groups complete serially
    in-process; only per-job failures that exhaust their retries raise
    :class:`HarnessError`, after the whole grid has been attempted.
    """
    specs = list(specs)
    worker = worker or execute_spec
    jobs = jobs if jobs and jobs > 0 else (os.cpu_count() or 1)
    results: List[Optional[RunRecord]] = [None] * len(specs)
    hashes = [
        spec.spec_hash(cache.salt if cache is not None else "")
        for spec in specs
    ]
    resumed_hashes = set()
    if resume and ledger is not None:
        resumed_hashes = completed_spec_hashes(ledger.path)
    if ledger is not None:
        ledger.open_run(len(specs))

    pending: List[Tuple[int, RunSpec]] = []
    for i, spec in enumerate(specs):
        record = cache.get_record(spec) if cache is not None else None
        if record is not None:
            results[i] = record
            if ledger is not None:
                status = "resume" if hashes[i] in resumed_hashes else "hit"
                ledger.record(LedgerEntry.for_spec(
                    spec, hashes[i], cache=status, retries=0,
                    outcome="ok", wall_seconds=0.0,
                    metrics=getattr(record, "metrics", None),
                ))
        else:
            pending.append((i, spec))

    groups = _group_by_compile(pending)
    failures: List[Tuple[RunSpec, str]] = []

    def _commit(group: List[Tuple[int, RunSpec]],
                pairs: List[Tuple[RunRecord, float]], attempts: int) -> None:
        for (i, spec), (record, wall) in zip(group, pairs):
            results[i] = record
            if cache is not None:
                cache.put_record(spec, record)
            if ledger is not None:
                ledger.record(LedgerEntry.for_spec(
                    spec, hashes[i], cache="miss", retries=attempts,
                    outcome="ok", wall_seconds=wall,
                    metrics=getattr(record, "metrics", None),
                ))

    def _fail(group: List[Tuple[int, RunSpec]], attempts: int,
              outcome: str, reason: str) -> None:
        for i, spec in group:
            failures.append((spec, reason))
            if ledger is not None:
                ledger.record(LedgerEntry.for_spec(
                    spec, hashes[i], cache="miss", retries=attempts,
                    outcome=outcome, wall_seconds=0.0, error=reason,
                ))

    def _serial_group(group: List[Tuple[int, RunSpec]]) -> None:
        """In-process execution of one group with retry + backoff."""
        group_specs = [spec for _, spec in group]
        attempts = 0
        while True:
            try:
                pairs = _run_group(group_specs, worker, cache)
            except Exception as exc:  # noqa: BLE001 — retried below
                if attempts < retries:
                    _sleep_backoff(attempts, backoff, backoff_cap)
                    attempts += 1
                    continue
                _fail(group, attempts, "error", repr(exc))
                return
            _commit(group, pairs, attempts)
            return

    if jobs == 1:
        for group in groups:
            _serial_group(group)
    elif groups:
        degraded = _run_pool(
            groups, worker, cache, ledger, jobs, timeout, retries,
            use_threads, backoff, backoff_cap, _commit, _fail,
        )
        for group in degraded:
            _serial_group(group)

    if failures:
        raise HarnessError(failures)
    return results  # type: ignore[return-value]  # all slots filled above


def _run_pool(
    groups: List[List[Tuple[int, RunSpec]]],
    worker: Worker,
    cache: Optional[ArtifactCache],
    ledger: Optional[RunLedger],
    jobs: int,
    timeout: Optional[float],
    retries: int,
    use_threads: bool,
    backoff: float,
    backoff_cap: float,
    _commit,
    _fail,
) -> List[List[Tuple[int, RunSpec]]]:
    """Pool execution; returns groups needing serial degradation.

    A broken pool (worker process killed) aborts pool mode: the event
    is logged and every not-yet-committed group is handed back to the
    caller to finish in-process.
    """
    pool_cls = ThreadPoolExecutor if use_threads else ProcessPoolExecutor
    pool: Executor = pool_cls(max_workers=jobs)
    degraded: List[List[Tuple[int, RunSpec]]] = []
    try:
        futures: Dict[int, Future] = {
            g: pool.submit(_run_group, [s for _, s in group], worker, cache)
            for g, group in enumerate(groups)
        }
        attempts_left = {g: retries for g in futures}
        attempts_used = {g: 0 for g in futures}

        def _resubmit(g: int) -> bool:
            """Retry group ``g``; False when the pool itself is broken."""
            attempts_left[g] -= 1
            attempts_used[g] += 1
            _sleep_backoff(attempts_used[g] - 1, backoff, backoff_cap)
            try:
                futures[g] = pool.submit(
                    _run_group, [s for _, s in groups[g]], worker, cache
                )
            except (BrokenExecutor, RuntimeError):
                return False
            return True

        broken: Optional[BaseException] = None
        while futures and broken is None:
            done_keys = []
            for g, future in list(futures.items()):
                group = groups[g]
                try:
                    pairs = future.result(timeout=timeout)
                except FutureTimeout:
                    future.cancel()
                    if attempts_left[g] > 0:
                        if _resubmit(g):
                            continue
                        broken = RuntimeError("pool broke during resubmit")
                        break
                    _fail(group, attempts_used[g], "timeout",
                          f"timed out after {timeout}s")
                    done_keys.append(g)
                    continue
                except BrokenExecutor as exc:
                    broken = exc
                    break
                except Exception as exc:  # noqa: BLE001 — retried below
                    if attempts_left[g] > 0:
                        if _resubmit(g):
                            continue
                        broken = RuntimeError("pool broke during resubmit")
                        break
                    _fail(group, attempts_used[g], "error", repr(exc))
                    done_keys.append(g)
                    continue
                _commit(group, pairs, attempts_used[g])
                done_keys.append(g)
            for g in done_keys:
                futures.pop(g, None)
        if broken is not None:
            degraded = [groups[g] for g in futures]
            if ledger is not None:
                ledger.event(
                    "pool_broken",
                    error=repr(broken),
                    degraded_groups=len(degraded),
                )
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return degraded
