"""Counters, gauges and histograms for observed runs.

A :class:`MetricsRegistry` is the aggregate side of :mod:`repro.obs`:
where spans record *when* something happened, metrics record *how often*
and *how much*.  Instruments are created lazily on first use and are
plain Python objects — no background threads, no sampling, no host
clocks — so they are safe to update from simulation callbacks.

Histograms are :class:`BoundedHistogram`: log-spaced buckets with exact
count/sum/min/max, so memory is bounded by the value *range*, not the
observation count — safe inside per-cycle hot paths and week-scale
macro horizons.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import MeasurementError

Number = Union[int, float]

#: Geometric bucket ratio of :class:`BoundedHistogram` — ~12.6 buckets
#: per decade, so relative quantile error stays under ~10%.
DEFAULT_LOG_BASE = 1.2


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise MeasurementError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A value that can move both ways (e.g. pending events, open spans)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value


class BoundedHistogram:
    """A log-bucketed histogram with exact count/sum/min/max.

    A positive observation lands in geometric bucket
    ``floor(log(value) / log(base))`` (value range
    ``[base**i, base**(i+1))``); negative observations mirror into a
    sign-split bucket map keyed by the magnitude's bucket, and zero has
    a dedicated bucket.  Memory is bounded by the number of *occupied*
    buckets (a handful per decade of dynamic range), never by the
    observation count, so the instrument is safe inside week-scale macro
    runs.

    ``count``/``total``/``min_value``/``max_value`` stay exact;
    :meth:`percentile` is bucket-approximate (geometric-midpoint
    representative, relative error bounded by ``sqrt(base) - 1``).
    """

    __slots__ = (
        "name", "base", "count", "total", "zeros",
        "_pos", "_neg", "_min", "_max", "_log_base",
    )

    def __init__(self, name: str, base: float = DEFAULT_LOG_BASE) -> None:
        if base <= 1.0:
            raise MeasurementError(
                f"histogram {name!r}: bucket base must exceed 1 (got {base})"
            )
        self.name = name
        self.base = float(base)
        self._log_base = math.log(self.base)
        self.count = 0
        self.total = 0.0
        self.zeros = 0
        #: bucket index -> count for positive / negative observations.
        self._pos: Dict[int, int] = {}
        self._neg: Dict[int, int] = {}
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def _index(self, magnitude: float) -> int:
        return math.floor(math.log(magnitude) / self._log_base)

    def observe(self, value: Number) -> None:
        sample = float(value)
        if not math.isfinite(sample):
            raise MeasurementError(
                f"histogram {self.name!r} cannot bucket non-finite value {sample!r}"
            )
        self.count += 1
        self.total += sample
        if self._min is None or sample < self._min:
            self._min = sample
        if self._max is None or sample > self._max:
            self._max = sample
        if sample == 0.0:
            self.zeros += 1
        elif sample > 0.0:
            index = self._index(sample)
            self._pos[index] = self._pos.get(index, 0) + 1
        else:
            index = self._index(-sample)
            self._neg[index] = self._neg.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def min_value(self) -> float:
        if self._min is None:
            raise MeasurementError(f"histogram {self.name!r} is empty")
        return self._min

    @property
    def max_value(self) -> float:
        if self._max is None:
            raise MeasurementError(f"histogram {self.name!r} is empty")
        return self._max

    def bucket_bounds(self, index: int) -> Tuple[float, float]:
        """Value range ``[lo, hi)`` of positive bucket ``index``."""
        return self.base ** index, self.base ** (index + 1)

    def _ordered_buckets(self) -> List[Tuple[float, float, int]]:
        """``(upper_bound, representative, count)`` in ascending value order."""
        out: List[Tuple[float, float, int]] = []
        for index in sorted(self._neg, reverse=True):
            lo, hi = self.bucket_bounds(index)
            out.append((-lo, -math.sqrt(lo * hi), self._neg[index]))
        if self.zeros:
            out.append((0.0, 0.0, self.zeros))
        for index in sorted(self._pos):
            lo, hi = self.bucket_bounds(index)
            out.append((hi, math.sqrt(lo * hi), self._pos[index]))
        return out

    def percentile(self, fraction: float) -> float:
        """Bucket-approximate nearest-rank percentile; ``fraction`` in [0, 1].

        Returns the geometric midpoint of the bucket holding the rank,
        clamped to the exact observed ``[min_value, max_value]`` range.
        Raises :class:`~repro.errors.MeasurementError` when empty.
        """
        if not 0.0 <= fraction <= 1.0:
            raise MeasurementError(f"percentile fraction {fraction} outside [0, 1]")
        if self.count == 0:
            raise MeasurementError(
                f"percentile of empty histogram {self.name!r}"
            )
        rank = min(self.count - 1, max(0, round(fraction * (self.count - 1))))
        seen = 0
        for _upper, representative, bucket_count in self._ordered_buckets():
            seen += bucket_count
            if rank < seen:
                return min(max(representative, self.min_value), self.max_value)
        return self.max_value  # pragma: no cover - rank always lands above


class MetricsRegistry:
    """Lazily-created named instruments, one namespace per tracer."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, BoundedHistogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> BoundedHistogram:
        """The named :class:`BoundedHistogram`, created on first use."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = BoundedHistogram(name)
        return instrument

    # --- views -----------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        return {name: c.value for name, c in sorted(self._counters.items())}

    def gauges(self) -> Dict[str, Number]:
        return {name: g.value for name, g in sorted(self._gauges.items())}

    def histograms(self) -> Dict[str, BoundedHistogram]:
        return dict(sorted(self._histograms.items()))

    def counter_value(self, name: str, default: int = 0) -> int:
        instrument = self._counters.get(name)
        return instrument.value if instrument is not None else default

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-able view of every instrument (for the JSONL exporter)."""
        return {
            "counters": dict(self.counters()),
            "gauges": dict(self.gauges()),
            "histograms": {
                name: {
                    "count": hist.count,
                    "total": hist.total,
                    "mean": hist.mean,
                    "p50": hist.percentile(0.50) if hist.count else None,
                    "p95": hist.percentile(0.95) if hist.count else None,
                }
                for name, hist in self.histograms().items()
            },
        }

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)
