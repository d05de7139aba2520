"""The on-chip MEE metadata cache.

"To alleviate performance overheads, the MEE is equipped with an internal
'MEE cache' that stores the metadata of the authentication tree"
(Sec. 6.2).  The cache is trusted (it is inside the security perimeter),
so a hit on a tree node *terminates* the verification walk — the cached
counter was verified when it was brought in.

A small set-associative LRU cache keyed by (level, index).  Per-access
walks call :meth:`MEECache.lookup` and :meth:`MEECache.insert`; a bulk
transfer replays its whole range in one call
(:meth:`MEECache.replay_writes`, :meth:`MEECache.replay_walks`), which
leaves the same lines and counts.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import count
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SecurityError

CacheKey = Tuple[int, int]  # (tree level, node index)

#: Level stride of the set mapping, (level * _LEVEL_STRIDE + index) % sets.
_LEVEL_STRIDE = 1000003


class MEECache:
    """Set-associative LRU cache of verified tree-node counters."""

    def __init__(self, sets: int = 32, ways: int = 8) -> None:
        for name, value in (("sets", sets), ("ways", ways)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise SecurityError(f"cache {name} must be an int, not {value!r}")
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

    def _set_number(self, key: CacheKey) -> int:
        # Explicit mix, not hash(): the set mapping — and with it the
        # simulated eviction pattern — must not depend on the
        # interpreter's hash algorithm.
        level, index = key
        return (level * _LEVEL_STRIDE + index) % self.sets

    def lookup(self, key: CacheKey) -> Optional[int]:
        """Return the cached counter for ``key``, or None on a miss."""
        level, index = key
        line = self._lines[(level * _LEVEL_STRIDE + index) % self.sets]  # _set_number inline
        counter = line.get(key)
        if counter is None:
            self.misses += 1
            return None
        line.move_to_end(key)
        self.hits += 1
        return counter

    def insert(self, key: CacheKey, counter: int) -> None:
        """Cache a verified counter, evicting LRU within the set."""
        level, index = key
        line = self._lines[(level * _LEVEL_STRIDE + index) % self.sets]  # _set_number inline
        if key in line:
            line.move_to_end(key)
            line[key] = counter
            return
        if len(line) >= self.ways:
            line.popitem(last=False)
            self.evictions += 1
        line[key] = counter

    def _ancestors(
        self, block: int, nodes: Sequence[Mapping[int, int]], arity: int, below: List[tuple]
    ) -> List[tuple]:
        """``(key, set number, counter)`` of each ancestor of ``block``, bottom-up.

        Entries of ``below`` (a lower block's ancestors) that still apply
        are reused, key objects included: the MRU test of
        :meth:`replay_writes` compares keys by identity.
        """
        chain = []
        index = block
        for level, counters in enumerate(nodes, start=1):
            index //= arity
            if level <= len(below) and below[level - 1][0] == (level, index):
                return chain + below[level - 1 :]  # the ancestors above are shared too
            key = (level, index)
            chain.append((key, self._set_number(key), counters[index]))
        return chain

    def replay_writes(
        self, first: int, stored: Sequence[int], nodes: Sequence[Mapping[int, int]], arity: int
    ) -> List[int]:
        """The cache traffic of a range write of blocks ``first..``, in one call.

        Leaves the lines and counts that these calls leave, block by block:
        ``lookup((0, block))``, ``insert((0, block), version)`` with
        ``version`` one more than the hit or ``stored[block - first]``,
        then ``insert((level, index), nodes[level - 1][index])`` for each
        ancestor bottom-up, ``index`` divided by ``arity`` per level.
        Returns the versions.

        An ancestor insert is skipped when this call already made that key
        the most recently used of its set.  Every ancestor is inserted with
        its final counter, so that re-insert would move, change and count
        nothing.  A key that was most recently used before the call may
        hold an older counter, so it is written.
        """
        lines = self._lines
        ways = self.ways
        set_number = self._set_number
        recent: List[Optional[CacheKey]] = [None] * self.sets  # per set, made MRU here
        chain: List[tuple] = []
        hits = misses = evictions = 0
        versions = []
        for block, old in zip(count(first), stored):
            key = (0, block)
            number = set_number(key)
            line = lines[number]
            if key in line:
                line.move_to_end(key)
                hits += 1
                version = line[key] + 1
            else:
                misses += 1
                version = old + 1
                if len(line) >= ways:
                    line.popitem(last=False)
                    evictions += 1
            line[key] = version
            recent[number] = key
            versions.append(version)
            if block % arity == 0 or block == first:
                chain = self._ancestors(block, nodes, arity, chain)
            for key, number, counter in chain:
                if recent[number] is key:
                    continue
                line = lines[number]
                if key in line:
                    line.move_to_end(key)
                elif len(line) >= ways:
                    line.popitem(last=False)
                    evictions += 1
                line[key] = counter
                recent[number] = key
        self.hits += hits
        self.misses += misses
        self.evictions += evictions
        return versions

    def replay_walks(
        self,
        first: int,
        blocks: int,
        versions: Mapping[int, int],
        nodes: Sequence[Mapping[int, int]],
        arity: int,
        stop: Optional[CacheKey] = None,
    ) -> List[int]:
        """The cache traffic of verify walks over ``blocks`` blocks from ``first``, in one call.

        Leaves the lines and counts that these calls leave, block by block:
        ``lookup((0, block))``; on a miss, for each ancestor bottom-up
        (``index`` divided by ``arity`` per level), ``lookup((level,
        index))``, ending the walk at a hit, else ``insert((level, index),
        nodes[level - 1][index])``; then ``insert((0, block),
        versions[block])``.  Returns each block's version: the hit, else
        ``versions[block]``.  It stops right after inserting ``stop``, and
        then returns only the versions of the blocks before.
        """
        lines = self._lines
        ways = self.ways
        set_number = self._set_number
        chain: List[tuple] = []
        hits = misses = evictions = 0
        done = []
        try:
            for block in range(first, first + blocks):
                if block % arity == 0 or block == first:
                    chain = self._ancestors(block, nodes, arity, chain)
                key = (0, block)
                line = lines[set_number(key)]
                if key in line:
                    line.move_to_end(key)
                    hits += 1
                    done.append(line[key])
                    continue
                misses += 1
                for node, number, counter in chain:
                    node_line = lines[number]
                    if node in node_line:
                        node_line.move_to_end(node)
                        hits += 1
                        break
                    misses += 1
                    if len(node_line) >= ways:
                        node_line.popitem(last=False)
                        evictions += 1
                    node_line[node] = counter
                    if node == stop:
                        return done
                # the walk inserts only tree nodes, so the block's key is still absent
                if len(line) >= ways:
                    line.popitem(last=False)
                    evictions += 1
                line[key] = version = versions[block]
                done.append(version)
            return done
        finally:
            self.hits += hits
            self.misses += misses
            self.evictions += evictions

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
