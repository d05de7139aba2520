"""The on-chip MEE metadata cache.

"To alleviate performance overheads, the MEE is equipped with an internal
'MEE cache' that stores the metadata of the authentication tree"
(Sec. 6.2).  The cache is trusted (it is inside the security perimeter),
so a hit on a tree node *terminates* the verification walk — the cached
counter was verified when it was brought in.

A small set-associative LRU cache keyed by (level, index).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Hashable, Optional, Tuple

from repro.errors import SecurityError

CacheKey = Tuple[int, int]  # (tree level, node index)


class MEECache:
    """Set-associative LRU cache of verified tree-node counters."""

    def __init__(self, sets: int = 32, ways: int = 8) -> None:
        if sets <= 0 or ways <= 0:
            raise SecurityError("cache geometry must be positive")
        self.sets = sets
        self.ways = ways
        self._lines: Dict[int, OrderedDict] = {index: OrderedDict() for index in range(sets)}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def capacity(self) -> int:
        """Total number of nodes the cache can hold."""
        return self.sets * self.ways

    def _set_of(self, key: CacheKey) -> OrderedDict:
        # Explicit mix, not hash(): the set mapping — and with it the
        # simulated eviction pattern — must not depend on the
        # interpreter's hash algorithm.
        level, index = key
        return self._lines[(level * 1000003 + index) % self.sets]

    def lookup(self, key: CacheKey) -> Optional[int]:
        """Return the cached counter for ``key``, or None on a miss."""
        line = self._set_of(key)
        if key in line:
            line.move_to_end(key)
            self.hits += 1
            return line[key]
        self.misses += 1
        return None

    def insert(self, key: CacheKey, counter: int) -> None:
        """Cache a verified counter, evicting LRU within the set."""
        line = self._set_of(key)
        if key in line:
            line.move_to_end(key)
            line[key] = counter
            return
        if len(line) >= self.ways:
            line.popitem(last=False)
            self.evictions += 1
        line[key] = counter

    def flush(self) -> None:
        """Drop everything (MEE power cycle)."""
        for line in self._lines.values():
            line.clear()

    @property
    def occupancy(self) -> int:
        return sum(len(line) for line in self._lines.values())

    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0 when never used)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
