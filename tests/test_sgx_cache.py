"""Tests for the MEE metadata cache."""

import random

import pytest

from mee_reference import walk_traffic, write_traffic

from repro.errors import SecurityError
from repro.sgx.cache import MEECache


class TestLookup:
    def test_miss_then_hit(self):
        cache = MEECache(sets=4, ways=2)
        assert cache.lookup((1, 0)) is None
        cache.insert((1, 0), 42)
        assert cache.lookup((1, 0)) == 42
        assert cache.hits == 1
        assert cache.misses == 1

    def test_insert_updates_value(self):
        cache = MEECache(sets=4, ways=2)
        cache.insert((1, 0), 1)
        cache.insert((1, 0), 2)
        assert cache.lookup((1, 0)) == 2
        assert cache.occupancy == 1

    def test_flush(self):
        cache = MEECache()
        for index in range(10):
            cache.insert((0, index), index)
        cache.flush()
        assert cache.occupancy == 0

    def test_hit_rate(self):
        cache = MEECache()
        cache.insert((0, 0), 1)
        cache.lookup((0, 0))
        cache.lookup((0, 1))
        assert cache.hit_rate() == pytest.approx(0.5)

    def test_hit_rate_empty(self):
        assert MEECache().hit_rate() == 0.0


class TestEviction:
    def test_lru_within_set(self):
        cache = MEECache(sets=1, ways=2)
        cache.insert((0, 0), 0)
        cache.insert((0, 1), 1)
        cache.lookup((0, 0))       # 0 becomes MRU
        cache.insert((0, 2), 2)    # evicts 1
        assert cache.lookup((0, 1)) is None
        assert cache.lookup((0, 0)) == 0
        assert cache.evictions == 1

    def test_capacity(self):
        cache = MEECache(sets=8, ways=4)
        assert cache.capacity == 32

    def test_occupancy_bounded_by_capacity(self):
        cache = MEECache(sets=2, ways=2)
        for index in range(100):
            cache.insert((0, index), index)
        assert cache.occupancy <= cache.capacity

    def test_invalid_geometry_rejected(self):
        with pytest.raises(SecurityError):
            MEECache(sets=0, ways=1)
        with pytest.raises(SecurityError):
            MEECache(sets=1, ways=0)

    @pytest.mark.parametrize(
        "geometry",
        [
            {"sets": 2.0},
            {"ways": 2.0},
            {"sets": True},
            {"ways": True},
            {"sets": False},
            {"sets": "4"},
            {"ways": None},
        ],
    )
    def test_non_int_geometry_rejected(self, geometry):
        with pytest.raises(SecurityError, match="must be an int"):
            MEECache(**geometry)


def cache_state(cache):
    return (
        [list(line.items()) for line in cache._lines.values()],
        cache.hits,
        cache.misses,
        cache.evictions,
    )


def generated_case(seed):
    """A cache geometry, a tree shape, prior traffic and one block range."""
    rng = random.Random(seed)
    arity = 8
    sets = rng.choice([1, 1, 2, 3, rng.randint(4, 64), 64])
    ways = rng.choice([1, 1, 2, rng.randint(3, 8), 8])
    levels = rng.randint(1, 4)
    data_blocks = rng.randint(arity ** (levels - 1) + (levels > 1), arity**levels)
    counts = [data_blocks]
    for _level in range(levels):
        counts.append(-(-counts[-1] // arity))
    length = rng.randint(1, min(data_blocks, rng.choice([8, 40, 300])))
    first = rng.randrange(data_blocks - length + 1)
    values = [{index: rng.randrange(100) for index in range(count)} for count in counts]
    stored = [values[0][block] for block in range(first, first + length)]
    prior = []
    for _ in range(rng.randrange(3 * sets * ways)):
        level = rng.randrange(levels + 1)
        key = (level, rng.randrange(counts[level]))
        prior.append((rng.random() < 0.5, key, rng.randrange(100)))
    if rng.random() < 0.5:
        # leave an ancestor of the range most recently used with an old counter
        level = rng.randint(1, levels)
        prior.append((True, (level, first // arity**level), rng.randrange(100)))
    stop = (levels, 0) if rng.random() < 0.3 else None
    return sets, ways, arity, first, stored, values, prior, stop


def warmed(sets, ways, prior):
    cache = MEECache(sets=sets, ways=ways)
    for is_insert, key, value in prior:
        if is_insert:
            cache.insert(key, value)
        else:
            cache.lookup(key)
    return cache


class TestReplayDifferential:
    """The bulk replays against the reference's per-block lookups and inserts, generated.

    Geometries of 1-64 sets and 1-8 ways, 1-4 tree levels, random prior
    lookups and inserts, ranges that cross node boundaries.  Wall
    budget: 2 s for this class (about 1 s on a 2-core Xeon host).
    """

    CASES = 600

    def test_replay_writes_equals_per_block_inserts(self):
        seen = set()
        for seed in range(self.CASES):
            sets, ways, arity, first, stored, values, prior, _stop = generated_case(seed)
            nodes = values[1:]
            want_cache = warmed(sets, ways, prior)
            want = write_traffic(want_cache, first, stored, nodes)
            cache = warmed(sets, ways, prior)
            got = cache.replay_writes(first, stored, nodes, arity)
            assert (got, cache_state(cache)) == (want, cache_state(want_cache)), seed
            seen.update([
                ("levels", len(nodes)),
                ("one set", sets == 1),
                ("one way", ways == 1),
                ("crosses a node", first // arity != (first + len(stored) - 1) // arity),
            ])
        assert {("levels", levels) for levels in (1, 2, 3, 4)} <= seen
        assert {("one set", True), ("one way", True), ("crosses a node", True)} <= seen

    def test_replay_walks_equals_per_block_walks(self):
        stopped = 0
        for seed in range(self.CASES):
            sets, ways, arity, first, stored, values, prior, stop = generated_case(seed)
            # the walks stop at the top node only: its counter is not the root
            top = values[-1][0]
            root = top if stop is None else top + 1
            want_cache = warmed(sets, ways, prior)
            want = walk_traffic(want_cache, first, len(stored), values[0], values[1:], root)
            cache = warmed(sets, ways, prior)
            got = cache.replay_walks(first, len(stored), values[0], values[1:], arity, stop)
            assert (got, cache_state(cache)) == (want, cache_state(want_cache)), seed
            stopped += len(want) < len(stored)
        assert stopped  # some walks reach a failing top node

    def test_mru_before_the_call_is_rewritten(self):
        """A key most recently used before the replay holds an old counter."""
        cache = MEECache(sets=2, ways=4)  # (1, 0) maps to set 1, away from block 0
        cache.insert((1, 0), 5)
        assert cache.replay_writes(0, [3], [{0: 7}], 8) == [4]
        assert list(cache._lines[0].items()) == [((0, 0), 4)]
        assert list(cache._lines[1].items()) == [((1, 0), 7)]
        assert (cache.hits, cache.misses, cache.evictions) == (0, 1, 0)
