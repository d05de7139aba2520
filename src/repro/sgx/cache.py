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

Which keys a bulk call touches, in which sets, and which ancestor
inserts of a range write are no-ops, depend only on the call's range,
the cache's set count and the tree's shape, never on the cache's
contents or the counters.  That *schedule* is built once per range and
kept in a bounded process-wide memo (:data:`_SCHEDULES`); a replay runs
only the LRU operations it lists, reading each counter at insert time.
Save and restore cycles move the same ranges over and over, so after the
first cycle every replay finds its schedule.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import count
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.effects import declares_effects
from repro.errors import SecurityError

CacheKey = Tuple[int, int]  # (tree level, node index)

#: Level stride of the set mapping, (level * _LEVEL_STRIDE + index) % sets.
_LEVEL_STRIDE = 1000003


def _set_number(level: int, index: int, sets: int) -> int:
    """The set that node ``(level, index)`` maps to.

    An explicit mix, not hash(): the set mapping — and with it the
    simulated eviction pattern — must not depend on the interpreter's
    hash algorithm.
    """
    return (level * _LEVEL_STRIDE + index) % sets


#: A tree node as a schedule lists it: ``(key, set number, level, index)``.
Node = Tuple[CacheKey, int, int, int]
#: One block of a schedule: its key, its set number, the ancestor inserts
#: a range write makes after the block's own (those the MRU skip keeps),
#: and every ancestor a verify walk climbs, bottom-up.
Step = Tuple[CacheKey, int, Tuple[Node, ...], Tuple[Node, ...]]
ScheduleKey = Tuple[int, int, int, int, int]  # (sets, first, count, levels, arity)

#: Replay schedules built in this process, by ``(sets, first, count,
#: levels, arity)``, least recently used first.  A platform's save and
#: restore FSMs move a few fixed ranges, so a few entries serve every
#: standby cycle; the bound keeps other ranges from piling up.
_SCHEDULES: "OrderedDict[ScheduleKey, Tuple[Step, ...]]" = OrderedDict()
_SCHEDULE_SLOTS = 8


def _build_schedule(
    sets: int, first: int, count: int, levels: int, arity: int
) -> Tuple[Step, ...]:
    """The schedule of ``count`` blocks from ``first``, ``levels`` tree levels above them.

    A write's ancestor insert is dropped when the range's own traffic
    already made that key the most recently used of its set: every
    ancestor is inserted with its final counter, so the re-insert would
    move, change and count nothing, whatever the cache held before.
    """
    recent: List[Optional[CacheKey]] = [None] * sets  # per set, made MRU by the range so far
    steps = []
    chain: Tuple[Node, ...] = ()
    for block in range(first, first + count):
        if block % arity == 0 or block == first:
            below, ancestors, index = chain, [], block
            for level in range(1, levels + 1):
                index //= arity
                if below and below[level - 1][3] == index:
                    ancestors += below[level - 1 :]  # the ancestors above are shared too
                    break
                ancestors.append(((level, index), _set_number(level, index, sets), level, index))
            chain = tuple(ancestors)
        key = (0, block)
        number = _set_number(0, block, sets)
        recent[number] = key
        inserts = []
        for node in chain:
            if recent[node[1]] != node[0]:
                inserts.append(node)
                recent[node[1]] = node[0]
        steps.append((key, number, tuple(inserts), chain))
    return tuple(steps)


@declares_effects("module-state")  # a bounded memo of a pure function: results never see it
def _schedule(sets: int, first: int, count: int, levels: int, arity: int) -> Tuple[Step, ...]:
    """:func:`_build_schedule` from :data:`_SCHEDULES`, built and kept on a miss."""
    key = (sets, first, count, levels, arity)
    schedule = _SCHEDULES.get(key)
    if schedule is None:
        schedule = _SCHEDULES[key] = _build_schedule(*key)
        if len(_SCHEDULES) > _SCHEDULE_SLOTS:
            _SCHEDULES.popitem(last=False)
    else:
        _SCHEDULES.move_to_end(key)
    return schedule


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
        schedule = _schedule(self.sets, first, len(stored), len(nodes), arity)
        hits = misses = evictions = 0
        versions = []
        for (key, number, inserts, _chain), old in zip(schedule, stored):
            line = lines[number]
            cached = line.get(key)
            if cached is not None:
                line.move_to_end(key)
                hits += 1
                version = cached + 1
            else:
                misses += 1
                version = old + 1
                if len(line) >= ways:
                    line.popitem(last=False)
                    evictions += 1
            line[key] = version
            versions.append(version)
            for node, number, level, index in inserts:
                line = lines[number]
                if node in line:
                    line.move_to_end(node)
                elif len(line) >= ways:
                    line.popitem(last=False)
                    evictions += 1
                line[node] = nodes[level - 1][index]
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
        schedule = _schedule(self.sets, first, blocks, len(nodes), arity)
        hits = misses = evictions = 0
        done = []
        try:
            for block, (key, number, _inserts, chain) in zip(count(first), schedule):
                line = lines[number]
                cached = line.get(key)
                if cached is not None:
                    line.move_to_end(key)
                    hits += 1
                    done.append(cached)
                    continue
                misses += 1
                for node, node_number, level, index in chain:
                    node_line = lines[node_number]
                    if node in node_line:
                        node_line.move_to_end(node)
                        hits += 1
                        break
                    misses += 1
                    if len(node_line) >= ways:
                        node_line.popitem(last=False)
                        evictions += 1
                    node_line[node] = nodes[level - 1][index]
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
