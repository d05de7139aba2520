"""Tests for the MEE metadata cache."""

import random

import pytest

from mee_generator import REPEATS, check_cases
from mee_reference import walk_traffic, write_traffic

from repro.errors import SecurityError
from repro.sgx.cache import _SCHEDULE_SLOTS, _SCHEDULES, MEECache, _build_schedule, _schedule


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


def generated_shape(rng):
    """A cache geometry, a tree shape (nodes per level, blocks first) and one block range."""
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
    return sets, ways, counts, first, length


def generated_traffic(rng, sets, ways, counts, first, length):
    """Counters, the range's stored versions, prior traffic and a walk stop over one shape."""
    arity = 8
    levels = len(counts) - 1
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
    return values, stored, prior, stop


def generated_case(seed):
    """A cache geometry, a tree shape, prior traffic and one block range."""
    rng = random.Random(seed)
    sets, ways, counts, first, length = generated_shape(rng)
    values, stored, prior, stop = generated_traffic(rng, sets, ways, counts, first, length)
    return sets, ways, 8, first, stored, values, prior, stop


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
    lookups and inserts, ranges that cross node boundaries.  A replay's
    schedule is memoized per range for the whole process, so the checks
    cover both a schedule just built and one found in the memo.  Wall
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

    #: Shapes of the schedule-hit test, each replayed at three keys twice.
    HIT_CASES = 60
    #: Generated cases of repeated saves and restores (:data:`mee_generator.REPEATS`).
    REPEAT_CASES = 3

    def test_schedule_hits_equal_per_block_traffic(self):
        """A range written then walked again over new prior traffic and counters.

        Each shape is replayed at its own key, at another ``first`` of the
        same length and at another set count, twice round; every replay
        after the first at a key finds its schedule memoized.  The walks
        run on the cache the writes left, as a restore follows a save.
        """
        hits = stopped = 0
        for seed in range(self.HIT_CASES):
            rng = random.Random(f"schedule hits:{seed}")
            sets, ways, counts, first, length = generated_shape(rng)
            levels = len(counts) - 1
            other_first = rng.randrange(counts[0] - length + 1)
            other_sets = rng.choice([count for count in (1, 2, 3, 7, 64) if count != sets])
            variants = [(sets, first), (sets, other_first), (other_sets, first)]
            for variant_sets, variant_first in variants:
                _SCHEDULES.pop((variant_sets, variant_first, length, levels, 8), None)
            for round_ in range(2):
                for variant_sets, variant_first in variants:
                    key = (variant_sets, variant_first, length, levels, 8)
                    hits += key in _SCHEDULES
                    assert key in _SCHEDULES or not round_, (seed, key)
                    values, stored, prior, stop = generated_traffic(
                        rng, variant_sets, ways, counts, variant_first, length
                    )
                    nodes = values[1:]
                    top = values[-1][0]
                    root = top if stop is None else top + 1
                    want_cache = warmed(variant_sets, ways, prior)
                    cache = warmed(variant_sets, ways, prior)
                    want = (
                        write_traffic(want_cache, variant_first, stored, nodes),
                        walk_traffic(want_cache, variant_first, length, values[0], nodes, root),
                    )
                    got = (
                        cache.replay_writes(variant_first, stored, nodes, 8),
                        cache.replay_walks(variant_first, length, values[0], nodes, 8, stop),
                    )
                    assert (got, cache_state(cache)) == (want, cache_state(want_cache)), (seed, key)
                    stopped += len(want[1]) < length
        assert hits >= 3 * self.HIT_CASES
        assert stopped  # some walks reach a failing top node

    def test_memo_is_bounded_and_an_evicted_schedule_rebuilds_equal(self):
        kept = _schedule(64, 0, 300, 3, 8)
        for first in range(1, _SCHEDULE_SLOTS + 3):  # more distinct ranges than slots
            _schedule(64, first, 300, 3, 8)
            assert len(_SCHEDULES) <= _SCHEDULE_SLOTS
        assert (64, 0, 300, 3, 8) not in _SCHEDULES
        rebuilt = _schedule(64, 0, 300, 3, 8)
        assert rebuilt is not kept
        assert rebuilt == kept == _build_schedule(64, 0, 300, 3, 8)

    def test_repeated_transfers_across_flushes_equal_the_reference(self):
        """Generated cases that save and restore one range again and again across
        MEE power cycles: memoized schedules leave what the reference leaves."""
        seen, _raised = check_cases(range(4000, 4000 + self.REPEAT_CASES), kinds=REPEATS)
        assert {("schedule replayed", kind) for kind in ("bulk_write", "bulk_read")} <= seen
        assert len(_SCHEDULES) <= _SCHEDULE_SLOTS
