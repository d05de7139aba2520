"""Tests for the MEE metadata cache."""

import pytest

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
