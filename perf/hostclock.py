"""Host speed, from a fixed probe loop timed between units of work.

The benchmark shares its host with other tenants, which slow the CPU
by up to half for seconds to minutes at a time (contention for the
core and its caches, not preemption: CPU time slows as much as wall
time).  Such load slows the probe and the workload together, so a run
scales its timings by ``REFERENCE_S`` over the probe's mean time in the
same stretch of the run: timings are *reference seconds*, what the
work would take on the host when the probe takes ``REFERENCE_S``.

The load comes in bursts, so the mean is taken over time, not the
median over probes: each probe stands for the work done since the
probe before it.

The probe is independent of the code under test.  It allocates no
objects, runs with the garbage collector off, and touches a few
kilobytes, so neither the program's heap nor its cache footprint
changes its time.
"""

from __future__ import annotations

import gc
import time
from typing import List, Optional, Sequence

#: the probe's time at reference speed; the loop below takes about
#: this long on the baseline host when it is quiet (see README)
REFERENCE_S = 1e-3
#: probe loop iterations
STEPS = 3700
#: slots the loop walks: few enough to stay in the L1 cache
SLOTS = 64


class _Slot:
    __slots__ = ("value", "kind")

    def __init__(self, i: int) -> None:
        self.value = i
        self.kind = i % 5


def _probe(slots: List[_Slot], counts: List[int]) -> None:
    """Interpreter work: attribute reads and writes, branches, indexing."""
    x = 12345
    for step in range(STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        slot = slots[x & (SLOTS - 1)]
        if slot.kind == 3:
            slot.value = (slot.value + step) & 0xFFFF
        else:
            slot.value = (slot.value * 3 + x) & 0xFFFF
        counts[slot.kind] = (counts[slot.kind] + 1) & 0xFFFF


class HostClock:
    """Probe samples taken while a run does its work."""

    def __init__(self) -> None:
        #: seconds of each probe
        self.samples: List[float] = []
        #: host seconds of work between each probe and the one before it
        self.work: List[float] = []
        self._slots = [_Slot(i) for i in range(SLOTS)]
        self._counts = [0] * 5
        self._last = time.perf_counter()

    def sample(self) -> float:
        """Time one probe; record and return its seconds."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _probe(self._slots, self._counts)
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.work.append(start - self._last)
        self.samples.append(end - start)
        self._last = end
        return end - start

    def speed(self, first: int = 0) -> Optional[float]:
        """Host speed over the work before samples ``first`` onwards.

        None when no probe was taken from ``first`` on.
        """
        if first >= len(self.samples):
            return None
        return speed(self.samples[first:], self.work[first:])


def speed(samples: Sequence[float],
          weights: Optional[Sequence[float]] = None) -> float:
    """Host speed against the reference: 1.0 at reference, 0.5 at half.

    ``REFERENCE_S`` over the mean probe time, weighted by ``weights``
    (equal weights by default).
    """
    if weights is None:
        weights = [1.0] * len(samples)
    return (REFERENCE_S * sum(weights)
            / sum(w * s for w, s in zip(weights, samples)))
