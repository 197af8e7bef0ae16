"""Low-overhead metrics: named counters and fixed-bucket histograms.

A :class:`MetricsRegistry` is a bag of :class:`Counter` and
:class:`Histogram` instances whose :meth:`~MetricsRegistry.summary`
is a plain JSON-ready dict.  :func:`run_metrics` builds the standard
per-run registry from a finished simulation — event counters plus the
task-size and squash-depth distributions — entirely *after* the run,
so the cycle loop never pays for it.  The task-size histogram is
memoized on the :class:`~repro.sim.taskstream.TaskStream`, so the
machine sweeps that share one compilation also share one pass over
the task list.

Histograms use fixed upper bounds: ``counts[i]`` holds observations
``v <= bounds[i]`` (first matching bound), and one overflow slot
collects everything beyond the last bound.  Fixed buckets keep the
summary mergeable and byte-stable across runs — the properties the
ledger and the report differ need.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: powers of two covering dynamic task sizes (instructions per task)
TASK_SIZE_BOUNDS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

#: in-flight tasks thrown away per squash event
SQUASH_DEPTH_BOUNDS: Tuple[int, ...] = (1, 2, 3, 4, 6, 8, 12, 16)


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket histogram with an overflow slot.

    ``bounds`` are inclusive upper edges in increasing order; an
    observation lands in the first bucket whose bound it does not
    exceed, or in the final overflow slot.
    """

    __slots__ = ("name", "bounds", "counts", "total", "sum", "max")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name!r} needs increasing bounds")
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, value) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value
        if value > self.max:
            self.max = value

    def observe_many(self, values: Iterable) -> None:
        bounds = self.bounds
        counts = self.counts
        total = 0
        acc = 0.0
        peak = self.max
        for value in values:
            counts[bisect_left(bounds, value)] += 1
            total += 1
            acc += value
            if value > peak:
                peak = value
        self.total += total
        self.sum += acc
        self.max = peak

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def summary(self) -> Dict:
        """JSON-ready snapshot (bounds, per-bucket counts, moments)."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.total,
            "sum": self.sum,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Named counters + histograms with a serializable summary."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created at zero on first use)."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str,
                  bounds: Optional[Sequence[float]] = None) -> Histogram:
        """The histogram called ``name`` (created on first use).

        ``bounds`` is required on first use and must match (or be
        omitted) on later lookups — silently re-bucketing would make
        summaries incomparable.
        """
        histogram = self._histograms.get(name)
        if histogram is None:
            if bounds is None:
                raise KeyError(f"histogram {name!r} not registered yet")
            histogram = self._histograms[name] = Histogram(name, bounds)
        elif bounds is not None and tuple(bounds) != histogram.bounds:
            raise ValueError(f"histogram {name!r} re-registered with "
                             f"different bounds")
        return histogram

    def summary(self) -> Dict:
        """The whole registry as JSON-ready primitives."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "histograms": {
                name: histogram.summary()
                for name, histogram in sorted(self._histograms.items())
            },
        }


def task_size_counts(stream) -> List[int]:
    """Per-bucket dynamic task sizes, memoized on the stream.

    All machine configurations replaying one compilation share the
    same task list, so the pass over it runs once per compilation,
    not once per run.
    """
    cached = getattr(stream, "_task_size_counts", None)
    if cached is None:
        histogram = Histogram("task_size", TASK_SIZE_BOUNDS)
        histogram.observe_many(stream.task_lengths())
        cached = (list(histogram.counts), histogram.sum, histogram.max)
        stream._task_size_counts = cached
    return cached


def run_metrics(result, stream) -> Dict:
    """The standard per-run metrics summary (a JSON-ready dict).

    ``result`` is a :class:`~repro.sim.machine.SimResult`; ``stream``
    the :class:`~repro.sim.taskstream.TaskStream` it replayed.  The
    summary rides inside the :class:`~repro.experiments.runner
    .RunRecord`, the artifact cache, and every harness ledger entry.
    """
    registry = MetricsRegistry()
    for name, value in (
        ("cycles", result.cycles),
        ("instructions", result.committed_instructions),
        ("dynamic_tasks", result.dynamic_tasks),
        ("task_predictions", result.task_predictions),
        ("task_mispredictions", result.task_mispredictions),
        ("control_squashes", result.control_squashes),
        ("memory_squashes", result.memory_squashes),
        ("branches", result.branch_count),
    ):
        registry.counter(name).inc(value)

    sizes = registry.histogram("task_size", TASK_SIZE_BOUNDS)
    counts, total_sum, peak = task_size_counts(stream)
    sizes.counts = list(counts)
    sizes.total = sum(counts)
    sizes.sum = total_sum
    sizes.max = peak

    depths = registry.histogram("squash_depth", SQUASH_DEPTH_BOUNDS)
    depths.observe_many(result.squash_depths)
    summary = registry.summary()
    # Per-PU utilization telemetry (scaling-study starvation columns).
    # Both loops fold a task's per-PU counts in when it retires;
    # guarded so pre-machines results (or mocks without the fields)
    # keep the historical summary shape.
    pu_useful = getattr(result, "pu_useful", None)
    if pu_useful:
        summary["pu"] = {
            "useful": list(pu_useful),
            "occupied": list(result.pu_occupied),
        }
    return summary
