"""The connected-standby workload runner.

Drives a :class:`~repro.system.skylake.SkylakePlatform` through the
periodic cycle of Fig. 2: Active (kernel maintenance) -> Entry -> DRIPS
-> Exit -> Active, for a configurable number of cycles, and measures the
average power and residencies over whole cycles.

The maintenance task is defined in *work* (core cycles at the reference
0.8 GHz clock), so raising the core frequency shortens the Active
residency — the race-to-sleep lever of Fig. 6(b).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import StandbyWorkloadConfig
from repro.errors import WorkloadError
from repro.io.wake import WakeEventType
from repro.measure.residency import ResidencyReport, macro_residency_report, residency_report
from repro.obs.tracer import MEASURE_TRACK
from repro.sim.macro import MacroEngine
from repro.system.flows import FlowController
from repro.system.skylake import SkylakePlatform
from repro.system.states import PlatformState
from repro.units import PICOSECONDS_PER_SECOND, seconds_to_ps

#: Reference frequency at which the maintenance work is defined.
REFERENCE_GHZ = 0.8


@dataclass
class StandbyResult:
    """Outcome of a connected-standby measurement run."""

    cycles: int
    window_start_ps: int
    window_end_ps: int
    average_power_w: float
    residency: ResidencyReport
    entry_latencies_ps: List[int] = field(default_factory=list)
    exit_latencies_ps: List[int] = field(default_factory=list)
    drips_breakdown_w: Dict[str, float] = field(default_factory=dict)
    wake_events: List[str] = field(default_factory=list)
    #: Macro-stepping statistics (None for event-by-event runs).
    macro: Optional[Dict[str, int]] = None

    @property
    def window_s(self) -> float:
        return (self.window_end_ps - self.window_start_ps) / PICOSECONDS_PER_SECOND

    @property
    def drips_residency(self) -> float:
        return self.residency.residency(PlatformState.DRIPS.value)

    @property
    def drips_power_w(self) -> float:
        return self.residency.average_power(PlatformState.DRIPS.value)

    @property
    def active_power_w(self) -> float:
        return self.residency.average_power(PlatformState.ACTIVE.value)


class ConnectedStandbyRunner:
    """Runs N maintenance/idle cycles and measures average power."""

    def __init__(
        self,
        platform: SkylakePlatform,
        workload: Optional[StandbyWorkloadConfig] = None,
        idle_interval_s: Optional[float] = None,
        maintenance_s: Optional[float] = None,
        randomize_maintenance: bool = False,
        external_wakes: bool = False,
        period_s: Optional[float] = None,
        macro: bool = False,
    ) -> None:
        """``idle_interval_s`` schedules the wake relative to DRIPS entry
        (free-running mode).  ``period_s`` instead fixes the whole cycle
        period — the wake timer fires at ``cycle_start + period`` no
        matter how long the flows took, so technique transition overheads
        eat into idle residency.  The paper's break-even sweep (Sec. 7)
        holds the period fixed; pass ``period_s`` for that experiment.

        ``macro`` enables cycle-compiled macro-stepping
        (:mod:`repro.sim.macro`): once two consecutive cycles match
        bit-for-bit the remaining periodic cycles are replayed
        analytically instead of simulated, with event-by-event fallback
        at irregular points.  Randomized maintenance defeats periodicity,
        so it disables the engine.
        """
        self.platform = platform
        self.workload = workload if workload is not None else StandbyWorkloadConfig()
        self.idle_interval_s = (
            idle_interval_s if idle_interval_s is not None else self.workload.idle_interval_s
        )
        self.period_s = period_s
        # chained comparisons are False for NaN, so these refuse it too
        if not 0 < self.idle_interval_s < math.inf:
            raise WorkloadError(
                f"idle interval must be finite and positive: {self.idle_interval_s}"
            )
        if period_s is not None and not 0 < period_s < math.inf:
            raise WorkloadError(f"period must be finite and positive: {period_s}")
        if maintenance_s is not None and not 0 <= maintenance_s < math.inf:
            raise WorkloadError(f"maintenance must be finite and non-negative: {maintenance_s}")
        self._fixed_maintenance_s = maintenance_s
        self.randomize_maintenance = randomize_maintenance
        self.external_wakes = external_wakes
        self._rng = random.Random(self.workload.seed)
        self._stashed_wake_delay_s: Optional[float] = None
        self._macro_engine: Optional[MacroEngine] = None
        if macro and not randomize_maintenance:
            self._macro_engine = MacroEngine(platform)
        self.flows = FlowController(platform)
        self.flows.set_active_callback(self._on_active)
        self._cycles_target = 0
        self._cycles_done = 0
        self._cycle_start_ps = 0
        self._period_anchor_ps: Optional[int] = None
        self._period_index = 0
        self._drips_breakdown: Dict[str, float] = {}
        self._finished = False

    # --- cycle mechanics ----------------------------------------------------

    def _maintenance_seconds(self) -> float:
        if self._fixed_maintenance_s is not None:
            return self._fixed_maintenance_s
        if self.randomize_maintenance:
            return self._rng.uniform(
                self.workload.maintenance_min_s, self.workload.maintenance_max_s
            )
        return self.workload.maintenance_mean_s

    def _start_cycle(self) -> None:
        p = self.platform
        self._cycle_start_ps = p.kernel.now
        # maintenance work is fixed in cycles at the reference clock
        work_cycles = round(self._maintenance_seconds() * REFERENCE_GHZ * 1e9)
        duration = p.compute.run_task(work_cycles)
        p.kernel.schedule(duration, self._end_maintenance, label="workload:maintenance")

    def _end_maintenance(self) -> None:
        p = self.platform
        if self.period_s is not None:
            # periodic schedule: wakes fire on an absolute grid anchored at
            # the first cycle, so flow overheads eat idle residency instead
            # of stretching the period
            if self._period_anchor_ps is None:
                self._period_anchor_ps = self._cycle_start_ps
            self._period_index += 1
            wake_ps = self._period_anchor_ps + round(
                self._period_index * self.period_s * PICOSECONDS_PER_SECOND
            )
            delay_s = max((wake_ps - p.kernel.now) / PICOSECONDS_PER_SECOND, 1e-6)
            target = p.next_timer_target(delay_s)
        else:
            target = p.next_timer_target(self.idle_interval_s)
        p.pmu.schedule_timer_event(target)
        if self.external_wakes:
            self._maybe_schedule_external_wake()
        self.flows.request_drips()
        # snapshot the DRIPS breakdown once the platform settles there
        p.kernel.schedule(
            seconds_to_ps(min(1.0, self.idle_interval_s / 2)),
            self._snapshot_drips,
            label="workload:breakdown",
        )

    def _snapshot_drips(self) -> None:
        if self.platform.state is PlatformState.DRIPS and not self._drips_breakdown:
            self._drips_breakdown = self.platform.power_breakdown()

    def _next_external_wake_delay(self) -> Optional[float]:
        """Next inter-wake delay draw in seconds (None: wakes disabled).

        One draw per standby cycle, shared between the event-by-event
        path and the macro-stepping executor so both consume the RNG
        stream identically.  A delay stashed by
        :meth:`_stash_external_wake_delay` is returned before drawing.
        """
        rate_per_s = self.workload.external_wake_rate_per_hour / 3600.0
        if rate_per_s <= 0:
            return None
        if self._stashed_wake_delay_s is not None:
            delay_s = self._stashed_wake_delay_s
            self._stashed_wake_delay_s = None
            return delay_s
        return self._rng.expovariate(rate_per_s)

    def _stash_external_wake_delay(self, delay_s: float) -> None:
        """Hold a drawn delay for the next cycle's wake scheduling.

        The macro executor stops skipping just before a cycle whose draw
        would fire; stashing the draw lets the exactly-simulated fallback
        cycle consume it, keeping the RNG stream aligned with an
        event-by-event run.
        """
        self._stashed_wake_delay_s = delay_s

    def _maybe_schedule_external_wake(self) -> None:
        delay_s = self._next_external_wake_delay()
        if delay_s is None:
            return
        if delay_s < self.idle_interval_s * 0.9:
            self.platform.kernel.schedule(
                seconds_to_ps(delay_s),
                lambda: self.flows.external_wake(WakeEventType.NETWORK, "injected"),
                label="workload:external-wake",
            )

    def _on_active(self, _event) -> None:
        self._cycles_done += 1
        engine = self._macro_engine
        if engine is not None and self._cycles_done < self._cycles_target:
            self._cycles_done += engine.at_boundary(self)
        if self._cycles_done >= self._cycles_target:
            self._finished = True
            return
        self._start_cycle()

    # --- public API -------------------------------------------------------------

    def run(self, cycles: int = 3, warmup_cycles: int = 0) -> StandbyResult:
        """Execute ``cycles`` measured cycles (plus optional warmup).

        The measurement window runs wake-to-wake: it starts at the wake
        event ending the first (post-warmup) idle period and ends exactly
        ``cycles`` wakes later, so it contains the same number of
        Active/Entry/DRIPS/Exit phases for every configuration — the
        unbiased comparison the break-even sweep needs.
        """
        for name, value in (("cycles", cycles), ("warmup_cycles", warmup_cycles)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise WorkloadError(f"{name} must be an int, not {value!r}")
        if cycles <= 0:
            raise WorkloadError("need at least one measured cycle")
        if warmup_cycles < 0:
            raise WorkloadError(f"warmup cycles must be non-negative: {warmup_cycles}")
        p = self.platform
        if not p.booted:
            p.boot()
        # one extra cycle supplies the closing wake of the window
        self._cycles_target = cycles + warmup_cycles + 1
        self._cycles_done = 0
        self._finished = False
        if self._macro_engine is not None:
            # fresh detector state per run
            self._macro_engine = MacroEngine(p)
        self._start_cycle()
        # generous event budget: each cycle is a handful of events
        p.kernel.run(max_events=self._cycles_target * 10_000 + 100_000)
        if not self._finished:
            raise WorkloadError("standby run did not complete; event budget exhausted")
        if len(p.wake_log) < warmup_cycles + cycles + 1:
            raise WorkloadError(
                f"expected at least {warmup_cycles + cycles + 1} wake events, "
                f"saw {len(p.wake_log)}"
            )
        window_start = p.wake_log[warmup_cycles].time_ps
        window_end = p.wake_log[warmup_cycles + cycles].time_ps
        obs = p.obs
        if obs is not None:
            obs.set_window(window_start, window_end)
            window = obs.begin("measure:window", window_start, track=MEASURE_TRACK)
            obs.end(window, window_end)
        engine = self._macro_engine
        if engine is not None and engine.spans:
            # compiled spans carry summary trace records only; the report
            # prices them analytically (bit-for-bit vs exact runs)
            report = macro_residency_report(
                p.trace, window_start, window_end, engine.spans
            )
        else:
            report = residency_report(p.trace, window_start, window_end)
        average = report.total_average_power()
        return StandbyResult(
            cycles=cycles,
            window_start_ps=window_start,
            window_end_ps=window_end,
            average_power_w=average,
            residency=report,
            entry_latencies_ps=list(self.flows.stats.entry_latencies_ps),
            exit_latencies_ps=list(self.flows.stats.exit_latencies_ps),
            drips_breakdown_w=dict(self._drips_breakdown),
            wake_events=[str(event) for event in p.wake_log],
            macro=(
                self._macro_engine.stats.as_dict()
                if self._macro_engine is not None
                else None
            ),
        )
