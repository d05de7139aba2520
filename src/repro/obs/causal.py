"""Causal wake-attribution over an observed run.

The paper's analytical method is attribution: decompose connected-standby
drain into per-source, per-state contributions *before* optimizing any of
them.  This module reconstructs that decomposition from a traced run: the
causal edges the instrumented seams recorded (kernel event -> wake
delivery -> entry/exit flow spans, :class:`~repro.obs.tracer.CausalEdge`)
plus the platform's wake log and state/power trace channels, composed
into

* a **wake-chain graph** — one :class:`WakeChain` per wake event inside
  the measurement window, linking the root wake to the exit flow it
  triggered and the entry flow that closed its cycle (macro-compiled
  spans appear as one aggregated chain carrying their cycle count);
* **per-cause rollups** — every joule and picosecond of the window
  attributed to one root cause: a wake source (``wake:timer``,
  ``wake:network``, ...) for the entry/exit transitions it forces,
  ``maintenance-burst`` for Active dwell, ``steady-idle`` for DRIPS
  dwell, and ``boot`` for anything before the first wake;
* **critical-path decompositions** — per flow name, the step spans that
  tile each entry/exit flow aggregated and ranked by total latency;
* **attribution cells** — the (domain x state x cause) energy cube the
  differential explainer (:mod:`repro.obs.diff`) ranks deltas over.

Everything here is read-only post-processing of records the tracer and
platform already hold: building a report never touches the simulation,
so measurement results are bit-for-bit identical whether or not a causal
report is ever built.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import MeasurementError
from repro.measure.residency import CyclePrice, clipped_intervals, merge_state_power
from repro.obs.ledger import RAIL_CHANNEL_PREFIX
from repro.obs.tracer import (
    EDGE_COMPILED,
    EDGE_FOLLOWUP,
    EDGE_TRIGGER,
    FLOW_STEP_TRACK,
    FLOW_TRACK,
    MACRO_TRACK,
    Span,
    Tracer,
)

#: Root-cause labels of the non-wake rollup buckets.
CAUSE_MAINTENANCE = "maintenance-burst"
CAUSE_IDLE = "steady-idle"
CAUSE_BOOT = "boot"

#: Prefix of the wake-rooted causes (completed by the wake-event type).
WAKE_CAUSE_PREFIX = "wake:"

#: Pseudo-state the macro engine's summary records carry (mirrored from
#: :data:`repro.sim.macro.MACRO_STATE` without importing the engine).
_MACRO_STATE = "macro:compiled"

#: Platform states attributed to fixed causes regardless of wake chains.
_STATE_CAUSES = {
    "active": CAUSE_MAINTENANCE,
    "drips": CAUSE_IDLE,
    "boot": CAUSE_BOOT,
}


def wake_cause(event_type_value: str) -> str:
    """The rollup cause label of a wake-event type (``wake:<type>``)."""
    return WAKE_CAUSE_PREFIX + event_type_value


@dataclass
class WakeChain:
    """One wake event and the flow spans it causally roots.

    ``cycles`` is 1 for an exactly-simulated chain; an aggregated chain
    standing for a macro-compiled span carries the span's cycle count
    and its summary span in ``macro_span``.
    """

    index: int
    cause: str
    wake_time_ps: int
    detail: str = ""
    cycles: int = 1
    exit_span: Optional[Span] = None
    entry_span: Optional[Span] = None
    macro_span: Optional[Span] = None

    @property
    def exit_latency_ps(self) -> int:
        return self.exit_span.duration_ps if self.exit_span is not None else 0

    @property
    def entry_latency_ps(self) -> int:
        return self.entry_span.duration_ps if self.entry_span is not None else 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "cause": self.cause,
            "wake_time_ps": self.wake_time_ps,
            "detail": self.detail,
            "cycles": self.cycles,
            "exit_latency_ps": self.exit_latency_ps,
            "entry_latency_ps": self.entry_latency_ps,
            "compiled": self.macro_span is not None,
        }


@dataclass
class CauseRollup:
    """Energy/residency attributed to one root cause over the window."""

    cause: str
    energy_j: float = 0.0
    dwell_ps: int = 0
    events: int = 0

    def residency(self, window_ps: int) -> float:
        return self.dwell_ps / window_ps if window_ps else 0.0

    def as_dict(self, window_ps: int) -> Dict[str, Any]:
        return {
            "cause": self.cause,
            "energy_j": self.energy_j,
            "dwell_ps": self.dwell_ps,
            "residency": self.residency(window_ps),
            "events": self.events,
        }


@dataclass
class FlowCriticalPath:
    """Per-step latency decomposition of one flow name.

    ``steps`` holds ``(label, total_ps, count)`` ranked by total latency
    — the critical path of a serial flow is the ranking of the steps
    that tile it.
    """

    flow: str
    count: int
    total_ps: int
    steps: List[Tuple[str, int, int]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "flow": self.flow,
            "count": self.count,
            "total_ps": self.total_ps,
            "steps": [
                {"label": label, "total_ps": total, "count": count}
                for label, total, count in self.steps
            ],
        }


@dataclass
class CausalReport:
    """The assembled wake-attribution view of one measurement window."""

    start_ps: int
    end_ps: int
    chains: List[WakeChain]
    rollups: Dict[str, CauseRollup]
    critical_paths: List[FlowCriticalPath]

    @property
    def window_ps(self) -> int:
        return self.end_ps - self.start_ps

    @property
    def total_energy_j(self) -> float:
        return math.fsum(r.energy_j for r in self.rollups.values())

    def ranked_rollups(self) -> List[CauseRollup]:
        """Rollups ranked by energy, ties broken by cause name."""
        return sorted(self.rollups.values(), key=lambda r: (-r.energy_j, r.cause))

    def as_dict(self) -> Dict[str, Any]:
        window = self.window_ps
        return {
            "window_ps": [self.start_ps, self.end_ps],
            "total_energy_j": self.total_energy_j,
            "chains": [chain.as_dict() for chain in self.chains],
            "rollups": [r.as_dict(window) for r in self.ranked_rollups()],
            "critical_paths": [path.as_dict() for path in self.critical_paths],
        }


def _window(
    tracer: Tracer, start_ps: Optional[int], end_ps: Optional[int]
) -> Tuple[int, int]:
    if start_ps is None or end_ps is None:
        if tracer.window_ps is None:
            raise MeasurementError(
                "no measurement window: pass start_ps/end_ps or observe a run"
            )
        start_ps, end_ps = tracer.window_ps
    if end_ps <= start_ps:
        raise MeasurementError("empty measurement window")
    return start_ps, end_ps


def _causal_segments(
    platform: Any, start_ps: int, end_ps: int
) -> List[Tuple[int, int, str, str, float]]:
    """``(lo, hi, state, cause, watts)`` segments covering the window.

    Plain state segments classify directly (Active -> maintenance burst,
    DRIPS -> steady idle, Entry/Exit -> the governing wake's cause, via
    the wake log).  ``macro:compiled`` segments keep the pseudo-state and
    take the compiled wake cause; their per-state split is refined by
    :func:`_macro_rollups` from the summary-span attribution args.
    """
    wake_times = [event.time_ps for event in platform.wake_log]
    wake_causes = [wake_cause(event.event_type.value) for event in platform.wake_log]
    segments: List[Tuple[int, int, str, str, float]] = []
    for lo, hi, state, watts in merge_state_power(platform.trace, start_ps, end_ps):
        cause = _STATE_CAUSES.get(state)
        if cause is None:
            # entry/exit transitions (and the macro pseudo-state) belong
            # to the latest wake at or before the segment start
            i = bisect_right(wake_times, lo)
            cause = wake_causes[i - 1] if i else CAUSE_BOOT
        segments.append((lo, hi, state, cause, watts))
    return segments


def _macro_spans(tracer: Tracer) -> List[Span]:
    return [span for span in tracer.closed_spans(MACRO_TRACK) if span.args]


def _macro_rollups(
    tracer: Tracer,
    rollups: Dict[str, CauseRollup],
    lo: int,
    hi: int,
) -> bool:
    """Fold one ``macro:compiled`` segment into the rollups.

    The summary span covering the segment carries the per-cycle
    attribution the engine compiled (state dwell/energy + wake cause),
    so N skipped cycles decompose into causes without per-cycle records.
    Returns False when no attributed summary span covers the segment.
    """
    for span in _macro_spans(tracer):
        if span.start_ps > lo or (span.end_ps or 0) < hi:
            continue
        args = span.args or {}
        period = args.get("period_ps")
        dwell = args.get("cycle_state_dwell_ps")
        energy = args.get("cycle_state_energy_j")
        if not period or not isinstance(dwell, dict) or not isinstance(energy, dict):
            continue
        cycles = (hi - lo) / period
        compiled_cause = wake_cause(str(args.get("wake_type", "timer")))
        for state in sorted(set(dwell) | set(energy)):
            cause = _STATE_CAUSES.get(state, compiled_cause)
            bucket = rollups.setdefault(cause, CauseRollup(cause))
            bucket.dwell_ps += round(dwell.get(state, 0) * cycles)
            bucket.energy_j += energy.get(state, 0.0) * cycles
        # events are NOT counted here: the engine synthesizes the wake-log
        # entries for skipped cycles, so the wake loop already tallies them
        return True
    return False


def build_wake_chains(
    tracer: Tracer, platform: Any, start_ps: int, end_ps: int
) -> List[WakeChain]:
    """The wake-chain graph: one chain per in-window wake root.

    Joins the platform's wake log against the tracer's causal edges.
    Wakes synthesized inside a macro-compiled span collapse into one
    aggregated chain per summary span (carrying the cycle count), so
    week-scale runs stay a few chains, not tens of thousands.
    """
    triggers: Dict[Tuple[str, int], Span] = {}
    followups: Dict[Tuple[str, int], Span] = {}
    compiled: Dict[Tuple[str, int], Span] = {}
    for edge in tracer.edges:
        source = edge.source
        key = (getattr(source, "name", ""), getattr(source, "time_ps", -1))
        if edge.kind == EDGE_TRIGGER:
            triggers[key] = edge.target
        elif edge.kind == EDGE_FOLLOWUP:
            followups[key] = edge.target
        elif edge.kind == EDGE_COMPILED:
            compiled[key] = edge.target

    chains: List[WakeChain] = []
    seen_macro: Dict[int, WakeChain] = {}
    macro_spans = _macro_spans(tracer)
    for event in platform.wake_log:
        if not (start_ps <= event.time_ps < end_ps):
            continue
        cause = wake_cause(event.event_type.value)
        key = (cause, event.time_ps)
        if key in triggers or key in followups:
            chains.append(
                WakeChain(
                    index=len(chains),
                    cause=cause,
                    wake_time_ps=event.time_ps,
                    detail=event.detail,
                    exit_span=triggers.get(key),
                    entry_span=followups.get(key),
                )
            )
            continue
        # a wake without flow edges was synthesized by a macro skip:
        # aggregate every wake of the covering span into one chain
        for span in macro_spans:
            if span.start_ps <= event.time_ps < (span.end_ps or 0):
                chain = seen_macro.get(id(span))
                if chain is None:
                    args = span.args or {}
                    chain = WakeChain(
                        index=len(chains),
                        cause=wake_cause(str(args.get("wake_type", "timer"))),
                        wake_time_ps=event.time_ps,
                        detail=str(args.get("wake_detail", "")),
                        cycles=0,
                        macro_span=span,
                    )
                    seen_macro[id(span)] = chain
                    chains.append(chain)
                chain.cycles += 1
                break
        else:
            chains.append(
                WakeChain(
                    index=len(chains),
                    cause=cause,
                    wake_time_ps=event.time_ps,
                    detail=event.detail,
                )
            )
    return chains


def build_cause_rollups(
    tracer: Tracer, platform: Any, start_ps: int, end_ps: int
) -> Dict[str, CauseRollup]:
    """Attribute every joule and picosecond of the window to a cause."""
    rollups: Dict[str, CauseRollup] = {}

    def exact_segments() -> Iterator[Tuple[int, int, str, float]]:
        for lo, hi, state, cause, watts in _causal_segments(platform, start_ps, end_ps):
            if state == _MACRO_STATE and _macro_rollups(tracer, rollups, lo, hi):
                continue
            rollups.setdefault(cause, CauseRollup(cause))
            yield lo, hi, cause, watts

    price = CyclePrice.of(exact_segments())
    for cause, joules in price.rounded_j().items():
        rollups[cause].dwell_ps += price.dwell_ps[cause]
        rollups[cause].energy_j += joules
    for event in platform.wake_log:
        if start_ps <= event.time_ps < end_ps:
            cause = wake_cause(event.event_type.value)
            bucket = rollups.setdefault(cause, CauseRollup(cause))
            bucket.events += 1
    return rollups


def flow_critical_paths(
    tracer: Tracer,
    start_ps: Optional[int] = None,
    end_ps: Optional[int] = None,
) -> List[FlowCriticalPath]:
    """Rank each flow's step spans by total latency contribution.

    Flow steps tile their flow (span-discipline rule M306), so for these
    serial flows the critical path *is* the ranked step decomposition:
    the top entry tells you which step to shorten first.
    """
    start_ps, end_ps = _window(tracer, start_ps, end_ps)
    flows = [
        span
        for span in tracer.closed_spans(FLOW_TRACK)
        if start_ps <= span.start_ps and (span.end_ps or 0) <= end_ps
    ]
    steps = tracer.closed_spans(FLOW_STEP_TRACK)
    paths: Dict[str, FlowCriticalPath] = {}
    for flow in flows:
        path = paths.setdefault(flow.name, FlowCriticalPath(flow.name, 0, 0))
        path.count += 1
        path.total_ps += flow.duration_ps
        totals: Dict[str, Tuple[int, int]] = {
            label: (total, count) for label, total, count in path.steps
        }
        for step in steps:
            if step.start_ps >= flow.start_ps and (step.end_ps or 0) <= (
                flow.end_ps or 0
            ):
                total, count = totals.get(step.name, (0, 0))
                totals[step.name] = (total + step.duration_ps, count + 1)
        path.steps = [
            (label, total, count) for label, (total, count) in totals.items()
        ]
    for path in paths.values():
        path.steps.sort(key=lambda item: (-item[1], item[0]))
    return sorted(paths.values(), key=lambda p: p.flow)


def build_causal_report(
    tracer: Tracer,
    platform: Any,
    start_ps: Optional[int] = None,
    end_ps: Optional[int] = None,
) -> CausalReport:
    """Assemble the full causal view of one observed measurement window."""
    start_ps, end_ps = _window(tracer, start_ps, end_ps)
    return CausalReport(
        start_ps=start_ps,
        end_ps=end_ps,
        chains=build_wake_chains(tracer, platform, start_ps, end_ps),
        rollups=build_cause_rollups(tracer, platform, start_ps, end_ps),
        critical_paths=flow_critical_paths(tracer, start_ps, end_ps),
    )


def attribution_cells(
    tracer: Tracer,
    platform: Any,
    start_ps: Optional[int] = None,
    end_ps: Optional[int] = None,
) -> Dict[Tuple[str, str, str], float]:
    """The (domain x state x cause) energy cube, in joules.

    Splits every per-rail power channel across the causal segmentation
    of the window — the cells the differential explainer ranks deltas
    over.  Macro-compiled regions keep the ``macro:compiled``
    pseudo-state (their per-rail split is per-cycle, not per-state) under
    the compiled wake cause.
    """
    start_ps, end_ps = _window(tracer, start_ps, end_ps)
    segments = _causal_segments(platform, start_ps, end_ps)
    trace = platform.trace
    rails = sorted(
        name[len(RAIL_CHANNEL_PREFIX):]
        for name in trace.channels()
        if name.startswith(RAIL_CHANNEL_PREFIX)
    )

    def overlaps() -> Iterator[Tuple[int, int, Tuple[str, str, str], float]]:
        for rail in rails:
            intervals = clipped_intervals(trace, RAIL_CHANNEL_PREFIX + rail, start_ps, end_ps)
            index = 0
            for lo, hi, state, cause, _watts in segments:
                while index < len(intervals) and intervals[index][1] <= lo:
                    index += 1
                scan = index
                while scan < len(intervals) and intervals[scan][0] < hi:
                    i_lo, i_hi, watts = intervals[scan]
                    cell_lo, cell_hi = max(i_lo, lo), min(i_hi, hi)
                    if cell_hi > cell_lo:
                        yield cell_lo, cell_hi, (rail, state, cause), watts
                    scan += 1

    return CyclePrice.of(overlaps()).rounded_j()
