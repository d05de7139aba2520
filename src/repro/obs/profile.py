"""Host-time phase profiler: where does the *wall clock* go?

The tracer (:mod:`repro.obs.tracer`) observes the simulated timeline;
this module observes the host that computes it.  A
:class:`PhaseProfiler` attributes host wall time and peak heap
allocations to the four phases every experiment decomposes into:

* ``build`` — constructing and wiring a platform
  (:meth:`~repro.core.odrips.ODRIPSController.build_platform`);
* ``simulate`` — running the discrete-event kernel through the
  connected-standby workload;
* ``measure`` — the power analyzer digesting the recorded trace;
* ``analyze`` — everything around them: driver glue, sweep fan-out,
  table formatting (the CLI opens this phase around each command).

The instrumented seams call :func:`host_phase`, which reads the
profiler from the one observation hook (:func:`repro.obs.hook.observe`);
with no profiler installed a seam costs one ``None`` check — the same
zero-cost discipline as the tracer, enforced by the 3% overhead guard in
``benchmarks/bench_perf_engine.py``.

Host time is exactly what lint rule S401 bans from simulation code, so
the two clock reads below carry explicit ``lint: allow`` pragmas — this
module is the one place in the library where wall time is the point.

Usage::

    from repro import obs

    profiler = obs.PhaseProfiler(track_allocations=True)
    with obs.observe(profiler=profiler):
        fig2_connected_standby(cycles=1)
    print(obs.render_profile(profiler))
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.effects import declares_effects
from repro.obs.hook import active

#: The canonical phase names, in pipeline order.
PHASE_BUILD = "build"
PHASE_SIMULATE = "simulate"
PHASE_MEASURE = "measure"
PHASE_ANALYZE = "analyze"
PHASES = (PHASE_BUILD, PHASE_SIMULATE, PHASE_MEASURE, PHASE_ANALYZE)


class PhaseSpan:
    """One completed phase instance on the host timeline.

    ``start_s``/``end_s`` are host seconds relative to the profiler's
    creation (so exported timelines start at zero); ``depth`` is the
    nesting level (``measure`` typically nests inside ``simulate``).
    ``peak_bytes`` is the peak traced allocation observed during the
    span's tail segment (see :class:`PhaseProfiler` for the caveat), or
    ``None`` when allocation tracking is off.
    """

    __slots__ = ("name", "start_s", "end_s", "depth", "peak_bytes", "children_s")

    def __init__(self, name: str, start_s: float, depth: int) -> None:
        self.name = name
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.depth = depth
        self.peak_bytes: Optional[int] = None
        self.children_s = 0.0

    @property
    def wall_s(self) -> float:
        """Inclusive wall time of the span (0.0 while still open)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    @property
    def self_s(self) -> float:
        """Exclusive wall time: the span minus its nested child spans."""
        return max(self.wall_s - self.children_s, 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PhaseSpan {self.name} {self.wall_s:.3f}s depth={self.depth}>"


class PhaseStats:
    """Aggregate of every span sharing one phase name."""

    __slots__ = ("name", "count", "wall_s", "self_s", "peak_bytes")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.wall_s = 0.0
        self.self_s = 0.0
        self.peak_bytes: Optional[int] = None

    def add(self, span: PhaseSpan) -> None:
        self.count += 1
        self.wall_s += span.wall_s
        self.self_s += span.self_s
        if span.peak_bytes is not None:
            current = self.peak_bytes if self.peak_bytes is not None else 0
            self.peak_bytes = max(current, span.peak_bytes)

    def to_json(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "count": self.count,
            "wall_s": self.wall_s,
            "self_s": self.self_s,
        }
        if self.peak_bytes is not None:
            payload["peak_bytes"] = self.peak_bytes
        return payload


class PhaseProfiler:
    """Attributes host wall time (and, optionally, allocations) to phases.

    ``track_allocations=True`` starts :mod:`tracemalloc` while the
    profiler is active and records per-span peak traced memory.  Peaks
    are measured with ``tracemalloc.reset_peak``, which is a single
    process-wide watermark: a nested child resets it for its own
    measurement, so a parent's recorded peak covers the segment *after*
    its last child — an attribution approximation, documented rather
    than hidden, that keeps the hooks allocation-free themselves.

    The profiler never touches simulated time: spans are stamped with
    the host clock only, and profiler state is excluded from the
    :mod:`repro.perf` configuration fingerprints.
    """

    def __init__(self, track_allocations: bool = False) -> None:
        self.track_allocations = track_allocations
        self.spans: List[PhaseSpan] = []
        self._stack: List[PhaseSpan] = []
        self._started_tracemalloc = False
        if track_allocations and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
        self._origin_s = time.perf_counter()  # lint: allow(S401) host-phase profiler

    @declares_effects("time")  # the profiler is host-side instrumentation
    def _now_s(self) -> float:
        """Host seconds since the profiler was created."""
        return time.perf_counter() - self._origin_s  # lint: allow(S401) host-phase profiler

    @contextmanager
    def phase(self, name: str) -> Iterator[PhaseSpan]:
        """Open a named phase for the duration of the ``with`` block."""
        span = PhaseSpan(name, self._now_s(), depth=len(self._stack))
        self.spans.append(span)
        self._stack.append(span)
        if self.track_allocations and tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        try:
            yield span
        finally:
            span.end_s = self._now_s()
            if self.track_allocations and tracemalloc.is_tracing():
                span.peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
            self._stack.pop()
            if self._stack:
                self._stack[-1].children_s += span.wall_s

    def close(self) -> None:
        """Stop the tracemalloc session this profiler started, if any."""
        if self._started_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._started_tracemalloc = False

    # --- digests ----------------------------------------------------------

    def closed_spans(self) -> List[PhaseSpan]:
        return [span for span in self.spans if span.end_s is not None]

    def stats(self) -> Dict[str, PhaseStats]:
        """Per-phase aggregates, known phases first, then first-seen order."""
        order: List[str] = list(PHASES)
        totals: Dict[str, PhaseStats] = {}
        for span in self.closed_spans():
            if span.name not in order:
                order.append(span.name)
            totals.setdefault(span.name, PhaseStats(span.name)).add(span)
        return {name: totals[name] for name in order if name in totals}

    def total_wall_s(self) -> float:
        """Wall time covered by top-level phases (no double counting)."""
        return sum(span.wall_s for span in self.closed_spans() if span.depth == 0)

    def summary(self) -> Dict[str, Dict[str, object]]:
        """JSON-able per-phase digest (what the flight recorder stores)."""
        return {name: stats.to_json() for name, stats in self.stats().items()}


@contextmanager
def host_phase(name: str) -> Iterator[None]:
    """Instrumentation seam: a phase on the active profiler, or a no-op.

    This is what the hooks in ``cli.py`` / ``core/odrips.py`` /
    ``measure/analyzer.py`` call; with no profiler installed it is one
    ``None`` check.
    """
    profiler = active().profiler
    if profiler is None:
        yield None
        return
    with profiler.phase(name):
        yield None
