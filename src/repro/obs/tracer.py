"""Structured span/event tracing on the simulated timeline.

A :class:`Tracer` collects three kinds of records, all stamped in
simulated picoseconds (never the host wall clock — lint rule S401):

* **spans** — named intervals with a begin and an end, e.g. one span per
  flow step of the DRIPS entry/exit flows;
* **instants** — point events, e.g. a kernel event dispatch, a PMU mode
  transition, a wake delivery;
* **metrics** — counters/gauges/histograms in the attached
  :class:`~repro.obs.metrics.MetricsRegistry`.

Instrumentation is process-wide opt-in through the one observation hook:
``obs.observe(tracer=...)`` installs a tracer, and instrumented
construction sites (for example
:class:`~repro.system.skylake.SkylakePlatform`) read it from
:func:`repro.obs.hook.active`.  Hot paths hold a direct ``obs``
attribute that defaults to ``None``, so with tracing disabled the only
cost is a single attribute check — no tracer object is ever consulted.

Tracer state is pure observation: it never schedules kernel events,
never perturbs simulated time, and is excluded from the
:mod:`repro.perf` configuration fingerprints, so cached measurements are
byte-identical with and without a tracer attached.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

#: Default track names the instrumented seams publish on.
KERNEL_TRACK = "kernel"
FLOW_STEP_TRACK = "flow-steps"
FLOW_TRACK = "flows"
PMU_TRACK = "pmu"
WAKE_TRACK = "wake"
MEASURE_TRACK = "measure"
MACRO_TRACK = "macro"

#: Causal-edge kinds threaded through the instrumented seams.
EDGE_DELIVERY = "delivery"  # kernel event dispatch -> wake delivery
EDGE_TRIGGER = "trigger"  # wake delivery -> exit flow it starts
EDGE_FOLLOWUP = "followup"  # wake delivery -> entry flow closing its cycle
EDGE_COMPILED = "compiled"  # wake template -> macro-compiled span (N cycles)


class Span:
    """One named interval on a track of the simulated timeline.

    ``end_ps`` is ``None`` while the span is open; :meth:`Tracer.end`
    closes it.  Spans are plain records — they carry no behaviour and
    never touch the simulation.
    """

    __slots__ = ("name", "track", "start_ps", "end_ps", "args")

    def __init__(
        self, name: str, track: str, start_ps: int, args: Optional[Dict[str, Any]] = None
    ) -> None:
        self.name = name
        self.track = track
        self.start_ps = start_ps
        self.end_ps: Optional[int] = None
        self.args = args

    @property
    def closed(self) -> bool:
        return self.end_ps is not None

    @property
    def duration_ps(self) -> int:
        """Span length in picoseconds (0 while still open)."""
        if self.end_ps is None:
            return 0
        return self.end_ps - self.start_ps

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"..{self.end_ps}" if self.closed else " (open)"
        return f"<Span {self.track}/{self.name} {self.start_ps}{state}>"


class Instant:
    """A point event on a track of the simulated timeline."""

    __slots__ = ("name", "track", "time_ps", "args")

    def __init__(
        self, name: str, track: str, time_ps: int, args: Optional[Dict[str, Any]] = None
    ) -> None:
        self.name = name
        self.track = track
        self.time_ps = time_ps
        self.args = args

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Instant {self.track}/{self.name} @{self.time_ps}>"


class CausalEdge:
    """A directed causal link between two trace records.

    ``source`` and ``target`` are the :class:`Span`/:class:`Instant`
    objects already held by the tracer — an edge adds no timeline records
    of its own.  Edges are pure observation, like everything else here;
    exporters render them as Perfetto flow arrows.
    """

    __slots__ = ("source", "target", "kind")

    def __init__(self, source: Any, target: Any, kind: str) -> None:
        self.source = source
        self.target = target
        self.kind = kind

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CausalEdge {self.kind} {self.source!r} -> {self.target!r}>"


class Tracer:
    """Collects spans, instants and metrics from an observed run.

    Usage::

        from repro import obs

        tracer = Tracer()
        with obs.observe(tracer=tracer):
            measurement = ODRIPSController(TechniqueSet.baseline()).measure(cycles=1)
        print(obs.render_summary(tracer))
    """

    def __init__(self) -> None:
        #: Every span, in begin order (open spans included).
        self.spans: List[Span] = []
        #: Every instant, in record order.
        self.instants: List[Instant] = []
        self.metrics = MetricsRegistry()
        #: Platforms built while this tracer was installed (append order).
        self.platforms: List[Any] = []
        #: Measurement window of the last observed run, set by the runner.
        self.window_ps: Optional[Tuple[int, int]] = None
        #: Causal links between records, in record order.
        self.edges: List[CausalEdge] = []
        self._open: List[Span] = []
        self._last_kernel: Optional[Instant] = None
        self._last_wake: Optional[Instant] = None

    # --- spans -----------------------------------------------------------

    def begin(
        self,
        name: str,
        start_ps: int,
        track: str = FLOW_STEP_TRACK,
        args: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Open a span at ``start_ps`` and return it."""
        span = Span(name, track, start_ps, args)
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span, end_ps: int) -> Span:
        """Close ``span`` at ``end_ps``.  Closing twice is an error."""
        if span.end_ps is not None:
            raise ValueError(f"span {span.name!r} already closed")
        if end_ps < span.start_ps:
            raise ValueError(
                f"span {span.name!r} would close before it opened "
                f"({end_ps} < {span.start_ps})"
            )
        span.end_ps = end_ps
        self._open.remove(span)
        return span

    @contextmanager
    def span(
        self, name: str, start_ps: int, end_ps: int, track: str = MEASURE_TRACK
    ) -> Iterator[Span]:
        """Record an already-bounded interval (begin and end known)."""
        span = self.begin(name, start_ps, track=track)
        try:
            yield span
        finally:
            self.end(span, end_ps)

    def open_spans(self) -> List[Span]:
        """Spans begun but not yet ended (leak detector for tests/lint)."""
        return list(self._open)

    def closed_spans(self, track: Optional[str] = None) -> List[Span]:
        """Closed spans, optionally restricted to one track."""
        return [
            span
            for span in self.spans
            if span.closed and (track is None or span.track == track)
        ]

    # --- instants --------------------------------------------------------

    def instant(
        self,
        name: str,
        time_ps: int,
        track: str = KERNEL_TRACK,
        args: Optional[Dict[str, Any]] = None,
    ) -> Instant:
        record = Instant(name, track, time_ps, args)
        self.instants.append(record)
        return record

    # --- causal edges ----------------------------------------------------

    def link(self, source: Any, target: Any, kind: str) -> CausalEdge:
        """Record a causal edge between two already-recorded records."""
        edge = CausalEdge(source, target, kind)
        self.edges.append(edge)
        return edge

    def flow_rooted(
        self,
        span: Span,
        kind: str,
        time_ps: int,
        detail: str = "",
        role: str = EDGE_TRIGGER,
    ) -> None:
        """Attribute a flow span to the wake event that caused it.

        Called by the flow controller when an exit flow starts
        (``EDGE_TRIGGER``) and when the following entry flow closes the
        same standby cycle (``EDGE_FOLLOWUP``).  The root is the
        ``wake:<kind>`` instant the wake hub already delivered; platforms
        without a hub in the wake path (baseline timer wakes land in the
        PMU directly) get a synthesized root instant so the wake-chain
        graph stays uniform across technique sets.
        """
        root = self._last_wake
        if root is None or root.time_ps != time_ps or root.name != f"wake:{kind}":
            args = {"detail": detail} if detail else None
            root = self.instant(f"wake:{kind}", time_ps, track=WAKE_TRACK, args=args)
            if self._last_kernel is not None and self._last_kernel.time_ps == time_ps:
                self.link(self._last_kernel, root, EDGE_DELIVERY)
            self._last_wake = root
        self.link(root, span, role)

    # --- instrumentation callbacks --------------------------------------

    def kernel_event(self, label: str, time_ps: int) -> None:
        """One kernel event dispatch (called from :meth:`Kernel.step`)."""
        name = label or "anon"
        record = Instant(name, KERNEL_TRACK, time_ps, None)
        self.instants.append(record)
        self._last_kernel = record
        self.metrics.counter(f"kernel.events:{name}").inc()

    def pmu_transition(self, old_mode: str, new_mode: str, time_ps: int) -> None:
        """One PMU gating-mode change (called from ``ProcessorPMU.set_mode``)."""
        self.instants.append(
            Instant(f"pmu:{old_mode}->{new_mode}", PMU_TRACK, time_ps, None)
        )
        self.metrics.counter(f"pmu.transitions:{new_mode}").inc()

    def wake_delivered(self, kind: str, time_ps: int, detail: str = "") -> None:
        """One wake-hub delivery (called from ``WakeHub._dispatch``)."""
        args = {"detail": detail} if detail else None
        record = Instant(f"wake:{kind}", WAKE_TRACK, time_ps, args)
        self.instants.append(record)
        if self._last_kernel is not None and self._last_kernel.time_ps == time_ps:
            self.link(self._last_kernel, record, EDGE_DELIVERY)
        self._last_wake = record
        self.metrics.counter(f"wake.delivered:{kind}").inc()

    def attach_platform(self, platform: Any) -> None:
        """Register a platform built under this tracer (for exporters)."""
        self.platforms.append(platform)

    def set_window(self, start_ps: int, end_ps: int) -> None:
        """Record the measurement window of the observed run."""
        self.window_ps = (start_ps, end_ps)
