"""Spans around the calls into each repro layer, recorded from outside src/.

:func:`instrument` swaps the module and class attributes the drivers
look up at call time (``runner.compile_benchmark``,
``MultiscalarMachine.run``, ``ArtifactCache.get_record`` ...) for
wrappers that open a span, call the original and close the span.
Every original is put back in a ``finally``, so nothing outlives the
``with`` block.  Spans stay in memory until :func:`write_chrome_trace`
writes them out.

Span names are ``<layer>.<what>`` where the layer is the repro
subpackage that owns the wrapped function; ``run.layer_metrics``
turns them into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterator, List, Optional

from hostclock import HostClock, speed

#: root span around one pass of a workload (opened by the workload)
PASS = "perf.pass"
#: span around the warm re-runs inside one ``rerun`` pass
WARM = "perf.warm"
#: span around ``repro.harness.scheduler.execute_spec``: one cell
CELL = "harness.cell"


class Span:
    """One timed call: ``[start, end)`` on ``time.perf_counter``.

    ``speed`` is a cell's host speed, from the probes just before and
    just after it, or None when the recorder does not probe.
    """

    __slots__ = ("name", "start", "end", "parent", "cell", "index", "speed")

    def __init__(self, name: str, start: float, parent: Optional[int],
                 cell: Optional[int], index: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.cell = cell
        self.index = index
        self.speed: Optional[float] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store plus the counters taken at the same calls.

    A ``probing`` recorder also samples host speed after every cell
    (see :mod:`hostclock`), outside the cell's span; traced runs do not
    probe, so their spans hold only the program's work.
    """

    def __init__(self, probing: bool = False) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.clock = HostClock()
        self.probing = probing
        self._stack: List[int] = []
        self._cell: Optional[int] = None
        self._cells = 0

    def probe(self) -> Optional[float]:
        """Probe; the host speed over the work since the last probe.

        That work ran between this probe and the one before, so both
        count.  None if this recorder does not probe.
        """
        if not self.probing:
            return None
        self.clock.sample()
        return speed(self.clock.samples[-2:])

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        outer_cell = self._cell
        if name == CELL:
            self._cell = self._cells
            self._cells += 1
        record = Span(name, time.perf_counter(), parent, self._cell,
                      len(self.spans))
        self.spans.append(record)
        self._stack.append(record.index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            self._cell = outer_cell
            if name == CELL:
                record.speed = self.probe()

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``count(result, args)`` tallies after."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def cells(self, since: int = 0) -> List[Span]:
        """The cell spans recorded from span ``since`` on."""
        return [s for s in self.spans[since:] if s.name == CELL]


class SkipCounter:
    """A no-op machine tracer that only counts fast-engine cycle skips.

    It goes through the simulator's public ``tracer=`` hook; every
    other hook the machine calls resolves to a no-op.
    """

    def __init__(self, counts: Counter) -> None:
        self.counts = counts

    def on_cycle_skip(self, from_cycle: int, to_cycle: int) -> None:
        self.counts["sim.cycles_skipped"] += to_cycle - from_cycle - 1

    def __getattr__(self, name: str):
        if not (name == "attach" or name.startswith("on_")):
            raise AttributeError(name)
        setattr(self, name, _noop)
        return _noop


def _noop(*args, **kwargs) -> None:
    return None


@contextlib.contextmanager
def instrument(recorder: Recorder, layers: bool) -> Iterator[None]:
    """Wrap the cell entry point, and with ``layers`` every layer.

    Untraced runs wrap only ``execute_spec`` (cell latency and
    simulated work are end-to-end metrics); traced runs wrap every
    layer boundary listed in the module docstring.
    """
    from repro.compiler import partition
    from repro.experiments import runner
    from repro.harness import scheduler
    from repro.harness.cache import ArtifactCache
    from repro.sim.machine import MultiscalarMachine
    from repro.tune import ga
    from repro.workloads.registry import Benchmark

    counts = recorder.counts

    def count_cell(record, args) -> None:
        counts["cell.cycles"] += record.cycles
        counts["cell.insts"] += record.instructions

    def count_run(result, args) -> None:
        counts["sim.cycles"] += result.cycles
        counts["sim.insts"] += result.committed_instructions

    def count_interp(trace, args) -> None:
        counts["ir.interp_insts"] += len(trace)

    def count_pack(stream, args) -> None:
        counts["sim.pack_tasks"] += len(stream.tasks)

    def count_get(found, args) -> None:
        counts["harness.cache_gets"] += 1
        counts["harness.cache_hits"] += found is not None

    patches = [(scheduler, "execute_spec", CELL, count_cell)]
    if layers:
        skips = SkipCounter(counts)
        real_machine = runner.MultiscalarMachine

        def machine(*args, **kwargs):
            if kwargs.get("tracer") is None:
                kwargs["tracer"] = skips
            with recorder.span("sim.init"):
                return real_machine(*args, **kwargs)

        patches += [
            (scheduler, "run_specs", "harness.run_specs", None),
            (ga, "run_specs", "harness.run_specs", None),
            (runner, "compile_benchmark", "experiments.compile", None),
            (runner, "_assemble_record", "experiments.record", None),
            (Benchmark, "build", "workloads.build", None),
            (runner, "select_tasks", "compiler.select", None),
            (runner, "ReleaseAnalysis", "compiler.release", None),
            (partition, "run_program", "ir.interp", count_interp),
            (runner, "run_program", "ir.interp", count_interp),
            (partition, "profile_trace", "profiling.profile", None),
            (runner, "build_task_stream", "sim.pack", count_pack),
            (MultiscalarMachine, "run", "sim.run", count_run),
            (ArtifactCache, "get_record", "harness.cache_get", count_get),
            (ArtifactCache, "get_compiled", "harness.cache_get", count_get),
            (ArtifactCache, "put_record", "harness.cache_put", None),
            (ArtifactCache, "put_compiled", "harness.cache_put", None),
        ]
    originals = []
    try:
        for owner, attr, name, count in patches:
            original = owner.__dict__[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original, count))
        if layers:
            originals.append((runner, "MultiscalarMachine", real_machine))
            runner.MultiscalarMachine = machine
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest strictly, so the children's
    intervals are disjoint and inside their parent's.
    """
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def layer_totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, total ``seconds`` and ``self`` seconds."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "seconds": 0.0, "self": 0.0}
    )
    for s, self_s in zip(spans, own):
        row = out[s.name]
        row["calls"] += 1
        row["seconds"] += s.duration
        row["self"] += self_s
    return dict(out)


def inside(spans: List[Span], ancestor: str) -> List[Span]:
    """The spans that have an ``ancestor``-named span above them."""
    marked: List[bool] = []
    for s in spans:
        up = s.parent
        marked.append(up is not None
                      and (spans[up].name == ancestor or marked[up]))
    return [s for s, hit in zip(spans, marked) if hit]


def format_self_times(spans: List[Span]) -> str:
    """A per-layer self-time table, largest first."""
    totals = layer_totals(spans)
    wall = sum(s.duration for s in spans if s.parent is None) or 1.0
    lines = [f"{'span':<22}{'calls':>8}{'self s':>10}{'share':>8}"]
    for name, row in sorted(totals.items(), key=lambda kv: -kv[1]["self"]):
        lines.append(
            f"{name:<22}{row['calls']:>8}{row['self']:>10.3f}"
            f"{row['self'] / wall:>8.1%}"
        )
    return "\n".join(lines)


def write_chrome_trace(spans: List[Span], path) -> None:
    """Chrome trace-event JSON (complete events), loadable by Perfetto."""
    origin = min((s.start for s in spans), default=0.0)
    events = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": "perf/run.py"}},
    ]
    for s in spans:
        events.append({
            "name": s.name,
            "cat": s.name.split(".", 1)[0],
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": round((s.start - origin) * 1e6, 3),
            "dur": round(s.duration * 1e6, 3),
            "args": {"id": s.index, "parent": s.parent, "cell": s.cell},
        })
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
