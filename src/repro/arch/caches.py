"""Cache models: texture cache, constant cache, Fermi L1/L2.

Set-associative LRU caches over *line base addresses* (the coalescer has
already resolved lane addresses into segments).  The architectural story
these implement:

* GT200 has **no** cache over plain global loads — its only cached read
  paths are the constant cache (broadcast, per-SM) and the texture cache
  (spatial reuse for irregular gathers).  This is why the paper's Sobel
  flips between GPUs (Fig. 8) and why texture memory matters so much for
  MD/SPMV (Fig. 4).
* Fermi adds a real L1/L2 hierarchy over global loads, which levels the
  constant-memory difference and halves texture's advantage.
"""
from __future__ import annotations

from collections import OrderedDict

import numpy as np

__all__ = ["LRUCache", "CacheStats", "null_cache", "texture_lines", "const_bases"]


def texture_lines(addrs: np.ndarray, sizes: np.ndarray) -> list:
    """Sorted distinct 32-byte texture-cache lines one warp fetch touches."""
    first = addrs // 32
    last = (addrs + np.maximum(sizes, 1) - 1) // 32
    return (np.union1d(first, last) * 32).tolist()


def const_bases(addrs: np.ndarray) -> list:
    """One 64-byte constant-cache line base per *distinct* address.

    In sorted address order: two addresses in the same line still
    serialize, the defining behaviour of the constant path.
    """
    return [a // 64 * 64 for a in np.unique(addrs).tolist()]


class CacheStats:
    __slots__ = ("hits", "misses")

    def __init__(self, hits: int = 0, misses: int = 0) -> None:
        self.hits = hits
        self.misses = misses

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        a = self.accesses
        return self.hits / a if a else 0.0

    # -- per-launch accounting (the profiler's snapshot/delta protocol) --
    def snapshot(self) -> tuple[int, int]:
        return (self.hits, self.misses)

    def since(self, snap: tuple[int, int]) -> "CacheStats":
        """Counters accrued after ``snap`` (one launch's worth)."""
        return CacheStats(self.hits - snap[0], self.misses - snap[1])

    def add(self, other: "CacheStats") -> "CacheStats":
        self.hits += other.hits
        self.misses += other.misses
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CacheStats(hits={self.hits}, misses={self.misses})"


class LRUCache:
    """Set-associative LRU cache keyed by line base address."""

    def __init__(self, capacity_bytes: int, line_bytes: int, ways: int = 4):
        self.line = max(line_bytes, 1)
        self.ways = ways
        self.sets = max(1, capacity_bytes // (self.line * ways))
        # sets materialize on first touch: sweeps build thousands of
        # cache banks and most sets of a short launch stay cold
        self._data: dict[int, OrderedDict] = {}
        self.stats = CacheStats()

    def access(self, base: int) -> bool:
        """Touch one line; True on hit.  Misses fill the line."""
        line_id = base // self.line
        si = line_id % self.sets
        s = self._data.get(si)
        if s is None:
            s = self._data[si] = OrderedDict()
        if line_id in s:
            s.move_to_end(line_id)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        s[line_id] = True
        if len(s) > self.ways:
            s.popitem(last=False)
        return False

    def invalidate(self) -> None:
        self._data.clear()


class _NullCache:
    """Cache-less read path (GT200 global loads): everything misses."""

    line = 1

    def __init__(self) -> None:
        self.stats = CacheStats()

    def access(self, base: int) -> bool:
        self.stats.misses += 1
        return False

    def invalidate(self) -> None:  # pragma: no cover - nothing to clear
        pass


def null_cache() -> _NullCache:
    return _NullCache()
