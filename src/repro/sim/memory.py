"""Cache hierarchy model: L1 I/D, unified L2, main memory.

Set-associative LRU caches with configurable geometry
(:class:`~repro.sim.config.CacheConfig`).  Latency-only: the model
returns access latency and updates replacement state; bandwidth and
bank conflicts are not modelled (noted as a substitution in
DESIGN.md — the paper's banked caches have one-cycle hits, so the
first-order effect on task-shape comparisons is the hit/miss pattern,
which this model captures).
"""

from __future__ import annotations

from typing import Dict, List

from repro.sim.config import CacheConfig, SimConfig


class Cache:
    """A single set-associative LRU cache level.

    Sets are stored sparsely (dict keyed by set index): an untouched
    set is indistinguishable from an empty one, and a 4 MB L2 has 64K
    sets of which a run touches a few hundred — allocating them all
    eagerly used to dominate machine construction time.
    """

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.sets: Dict[int, List[int]] = {}
        self._n_sets = config.sets
        self._assoc = config.assoc
        self.hits = 0
        self.misses = 0

    def access(self, line_addr: int) -> bool:
        """Touch ``line_addr``; return True on hit (LRU updated)."""
        index = line_addr % self._n_sets
        ways = self.sets.get(index)
        if ways is None:
            ways = self.sets[index] = []
        elif line_addr in ways:
            if ways[-1] != line_addr:
                ways.remove(line_addr)
                ways.append(line_addr)
            self.hits += 1
            return True
        self.misses += 1
        ways.append(line_addr)
        if len(ways) > self._assoc:
            ways.pop(0)
        return False

    @property
    def accesses(self) -> int:
        """Total accesses so far."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Miss fraction (0.0 when unused)."""
        total = self.accesses
        return self.misses / total if total else 0.0


class MemoryHierarchy:
    """L1 I + L1 D backed by a unified L2 and main memory."""

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self.l1d = Cache(config.l1d, "l1d")
        self.l1i = Cache(config.l1i, "l1i")
        self.l2 = Cache(config.l2, "l2")

    def _line_of_word(self, word_addr: int, line_bytes: int) -> int:
        words_per_line = max(1, line_bytes // self.config.word_bytes)
        return word_addr // words_per_line

    def data_access(self, word_addr: int) -> int:
        """Latency of a data access at word address ``word_addr``."""
        line = self._line_of_word(word_addr, self.config.l1d.line_bytes)
        if self.l1d.access(line):
            return self.config.l1d.hit_latency
        if self.l2.access(line):
            return self.config.l1d.hit_latency + self.config.l2.hit_latency
        return (
            self.config.l1d.hit_latency
            + self.config.l2.hit_latency
            + self.config.memory_latency
        )

    def inst_access(self, pc: int) -> int:
        """Latency of an instruction fetch at address ``pc``."""
        line = self._line_of_word(pc, self.config.l1i.line_bytes)
        if self.l1i.access(line):
            return self.config.l1i.hit_latency
        if self.l2.access(line):
            return self.config.l1i.hit_latency + self.config.l2.hit_latency
        return (
            self.config.l1i.hit_latency
            + self.config.l2.hit_latency
            + self.config.memory_latency
        )

    def stats(self) -> Dict[str, float]:
        """Hit/miss counters for reporting."""
        return {
            "l1d_accesses": self.l1d.accesses,
            "l1d_miss_rate": self.l1d.miss_rate,
            "l1i_accesses": self.l1i.accesses,
            "l1i_miss_rate": self.l1i.miss_rate,
            "l2_accesses": self.l2.accesses,
            "l2_miss_rate": self.l2.miss_rate,
        }
