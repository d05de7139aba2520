"""Content-addressed memoization of simulation results.

The platform model is deterministic: a configuration tree fully
determines the measurement it produces.  :class:`SimulationCache` keys
results by the :func:`~repro.perf.fingerprint.fingerprint` of that tree,
so distinct experiment drivers (fig2, fig6a, fig6d, validation, ...) that
re-run the same configuration — the baseline standby run above all —
simulate it once and share the reading.

Cached values are returned by reference and must be treated as
immutable; the digested measurement objects the library caches are never
mutated by their consumers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, TypeVar

from repro.obs.hook import active
from repro.perf.fingerprint import fingerprint

Result = TypeVar("Result")


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of one cache instance."""

    hits: int
    misses: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class SimulationCache:
    """In-memory memo of simulation results keyed by config fingerprints.

    Usage::

        from repro.perf import SimulationCache
        from repro.core import ODRIPSController, TechniqueSet
        from repro.core.experiments import fig2_connected_standby, fig6a_techniques

        cache = SimulationCache()
        fig2 = fig2_connected_standby(cache=cache)
        fig6a = fig6a_techniques(cache=cache)   # baseline run is a cache hit
        assert cache.stats.hits >= 1
    """

    def __init__(self) -> None:
        self._entries: Dict[str, Any] = {}
        self._hits = 0
        self._misses = 0

    def key(self, *parts: Any) -> str:
        """Deterministic cache key for a configuration tree."""
        return fingerprint(*parts)

    def get_or_run(self, key: str, runner: Callable[[], Result]) -> Result:
        """Return the cached result for ``key``, running ``runner`` on miss."""
        try:
            value = self._entries[key]
        except KeyError:
            self._misses += 1
            tracer = active().tracer
            if tracer is not None:
                tracer.metrics.counter("cache.miss").inc()
            value = self._entries[key] = runner()
            return value
        self._hits += 1
        tracer = active().tracer
        if tracer is not None:
            tracer.metrics.counter("cache.hit").inc()
        return value

    @property
    def stats(self) -> CacheStats:
        return CacheStats(hits=self._hits, misses=self._misses)

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        self._entries.clear()

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)
