"""Activity traces: record/replay of connected-standby nights.

The paper measures residency on a live Windows machine; an open-source
reproduction wants the equivalent as *data* — a timestamped activity
trace that can be generated, saved, loaded, inspected, and replayed
against any platform configuration.

* :class:`TraceEvent` / :class:`ActivityTrace` — the trace format, with
  CSV round-trip.
* :func:`standard_standby_trace` — the paper's workload: maintenance
  every ~30 s, rare external wakes.
* :func:`chatty_night_trace` — a messaging-heavy night (frequent
  network wakes), the usability scenario of Sec. 1.
* :class:`TraceDrivenRunner` — replays a trace on a platform and
  measures average power, exactly like the periodic runner.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.errors import WorkloadError
from repro.io.wake import WakeEventType
from repro.measure.residency import residency_report
from repro.system.flows import FlowController
from repro.system.states import PlatformState
from repro.units import PICOSECONDS_PER_SECOND
from repro.workloads.standby import REFERENCE_GHZ, StandbyResult

#: Event kinds a trace may contain.
KIND_MAINTENANCE = "maintenance"   # param = burst duration in seconds
KIND_NETWORK = "network"           # param unused
KIND_USER = "user"                 # param = interaction duration in seconds


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped activity event."""

    time_s: float
    kind: str
    param: float = 0.0

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise WorkloadError("event time cannot be negative")
        if self.kind not in (KIND_MAINTENANCE, KIND_NETWORK, KIND_USER):
            raise WorkloadError(f"unknown event kind {self.kind!r}")
        if self.kind in (KIND_MAINTENANCE, KIND_USER) and self.param <= 0:
            raise WorkloadError(f"{self.kind} events need a positive duration")


class ActivityTrace:
    """A sorted sequence of activity events with CSV round-trip."""

    def __init__(self, events: Iterable[TraceEvent], label: str = "trace") -> None:
        self.events: List[TraceEvent] = sorted(events, key=lambda e: e.time_s)
        self.label = label
        if not self.events:
            raise WorkloadError("a trace needs at least one event")

    @property
    def duration_s(self) -> float:
        """Time of the last event (the replay horizon)."""
        return self.events[-1].time_s

    def counts(self) -> dict:
        out: dict = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def busy_seconds(self) -> float:
        """Total active (non-idle) seconds the trace demands."""
        return sum(
            event.param
            for event in self.events
            if event.kind in (KIND_MAINTENANCE, KIND_USER)
        )

    def expected_idle_fraction(self) -> float:
        """First-order residency estimate (ignores transition time)."""
        if self.duration_s == 0:
            return 0.0
        return max(0.0, 1.0 - self.busy_seconds() / self.duration_s)

    # --- CSV round-trip ---------------------------------------------------

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["time_s", "kind", "param"])
        for event in self.events:
            writer.writerow([f"{event.time_s:.6f}", event.kind, f"{event.param:.6f}"])
        return out.getvalue()

    @classmethod
    def from_csv(cls, text: str, label: str = "trace") -> "ActivityTrace":
        reader = csv.DictReader(io.StringIO(text))
        events = []
        for row in reader:
            try:
                events.append(
                    TraceEvent(float(row["time_s"]), row["kind"], float(row["param"]))
                )
            except (KeyError, TypeError, ValueError) as error:
                raise WorkloadError(f"malformed trace row {row!r}") from error
        return cls(events, label=label)


def standard_standby_trace(
    duration_s: float = 300.0,
    maintenance_interval_s: float = 30.0,
    maintenance_s: float = 0.145,
    seed: int = 2020,
) -> ActivityTrace:
    """The paper's workload: kernel maintenance every ~30 s (Sec. 7)."""
    rng = random.Random(seed)
    events = []
    t = maintenance_interval_s
    while t < duration_s:
        events.append(TraceEvent(t, KIND_MAINTENANCE, maintenance_s))
        t += maintenance_interval_s * rng.uniform(0.98, 1.02)
    if not events:
        raise WorkloadError("trace horizon shorter than one maintenance interval")
    return ActivityTrace(events, label="standard-standby")


def chatty_night_trace(
    duration_s: float = 300.0,
    maintenance_interval_s: float = 30.0,
    maintenance_s: float = 0.145,
    network_rate_per_minute: float = 2.0,
    seed: int = 7,
) -> ActivityTrace:
    """A messaging-heavy night: frequent network wakes between bursts."""
    rng = random.Random(seed)
    base = standard_standby_trace(
        duration_s, maintenance_interval_s, maintenance_s, seed
    )
    events = list(base.events)
    t = rng.expovariate(network_rate_per_minute / 60.0)
    while t < duration_s:
        events.append(TraceEvent(t, KIND_NETWORK))
        t += rng.expovariate(network_rate_per_minute / 60.0)
    return ActivityTrace(events, label="chatty-night")


class TraceDrivenRunner:
    """Replays an :class:`ActivityTrace` against a platform.

    Maintenance events become timer wakes (the platform sleeps until the
    event's timestamp); network/user events arrive as external wakes.
    After each wake the platform runs the demanded burst and re-enters
    DRIPS aimed at the next trace event.
    """

    def __init__(self, platform, trace: ActivityTrace) -> None:
        self.platform = platform
        self.trace = trace
        self.flows = FlowController(platform)
        self.flows.set_active_callback(self._on_active)
        self._index = 0
        self._finished = False
        self._measure_start_ps: Optional[int] = None

    def _next_event(self) -> Optional[TraceEvent]:
        if self._index < len(self.trace.events):
            return self.trace.events[self._index]
        return None

    def _enter_idle_toward(self, event: TraceEvent) -> None:
        p = self.platform
        now_s = p.kernel.now / PICOSECONDS_PER_SECOND
        delay_s = max(event.time_s - now_s, 0.002)
        p.pmu.schedule_timer_event(p.next_timer_target(delay_s))
        if event.kind == KIND_NETWORK:
            # the packet arrives at the event time regardless of the timer
            p.kernel.schedule(
                round(delay_s * PICOSECONDS_PER_SECOND),
                lambda: self.flows.external_wake(WakeEventType.NETWORK, "trace"),
                label="trace:network",
            )
        self.flows.request_drips()

    def _run_burst(self, event: TraceEvent) -> None:
        p = self.platform
        burst_s = event.param if event.param > 0 else 0.005  # wake handling
        work_cycles = round(burst_s * REFERENCE_GHZ * 1e9)
        duration = p.compute.run_task(work_cycles)
        p.kernel.schedule(duration, self._burst_done, label="trace:burst")

    def _burst_done(self) -> None:
        self._index += 1
        upcoming = self._next_event()
        if upcoming is None:
            self._finished = True
            return
        self._enter_idle_toward(upcoming)

    def _on_active(self, _wake_event) -> None:
        event = self.trace.events[self._index]
        self._run_burst(event)

    def run(self) -> StandbyResult:
        """Replay the whole trace; returns the standard result object."""
        p = self.platform
        if not p.booted:
            p.boot()
        self._measure_start_ps = p.kernel.now
        first = self._next_event()
        assert first is not None
        self._enter_idle_toward(first)
        p.kernel.run(max_events=len(self.trace.events) * 10_000 + 100_000)
        if not self._finished:
            raise WorkloadError("trace replay did not finish; event budget exhausted")
        window_start = self._measure_start_ps
        window_end = p.kernel.now
        report = residency_report(p.trace, window_start, window_end)
        return StandbyResult(
            cycles=len(self.trace.events),
            window_start_ps=window_start,
            window_end_ps=window_end,
            average_power_w=report.total_average_power(),
            residency=report,
            entry_latencies_ps=list(self.flows.stats.entry_latencies_ps),
            exit_latencies_ps=list(self.flows.stats.exit_latencies_ps),
            drips_breakdown_w={},
            wake_events=[str(event) for event in p.wake_log],
        )
