"""Cycle-compiled macro-stepping for periodic connected-standby runs.

Connected standby is overwhelmingly periodic: after boot transients die
out, every cycle of the Fig. 2 workload — Active maintenance, entry
flow, DRIPS residency, exit flow — repeats bit-for-bit on a fixed
period.  Simulating week-long horizons event by event therefore redoes
identical work tens of thousands of times.

This module exploits that steady state in three stages:

* **Detect** — at every wake-to-active boundary the
  :class:`MacroEngine` fingerprints the cycle that just completed: the
  trace samples it appended (as channel/offset/value tuples relative to
  the cycle start, with the ``wake`` channel normalized because its
  value embeds the absolute wake time), its duration, its wake event,
  its entry/exit flow latencies, and the kernel's pending-event
  signature at both boundaries.  Two consecutive cycles with equal
  fingerprints prove periodic steady state.
* **Compile** — the matched cycle becomes a :class:`CompiledCycle`: its
  duration, wake-event template, flow latencies, platform and per-rail
  energies, and the cycle's merged state-power *segment list* — the
  closed-form residency vector one period contributes.  Compilation
  also proves the ledger balanced: the per-rail trace energies of the
  cycle must sum to the platform-channel energy within
  :data:`LEDGER_TOLERANCE`, and every rail channel must appear in the
  platform's declared macro ledger coverage (lint rule M308 checks the
  same declaration statically).
* **Execute** — instead of re-simulating, the engine advances N cycles
  per macro-step in O(1) *simulation* work: it warps the kernel clock
  (:meth:`~repro.sim.kernel.Kernel.warp`) past the skipped span, extends
  the wake log and flow statistics, and appends one *summary interval*
  per power channel to the trace — the cycle-average power held across
  the span, restored to the boundary value at span end.  The trace is the
  platform's one energy record, so naive trace consumers (the analyzer,
  the obs energy ledger, Perfetto exports) integrate the span to the
  right energy without per-cycle samples.  The state channel carries
  the :data:`MACRO_STATE` marker across the span.

The measured results stay **bit-for-bit identical** to an event-by-event
run for pure-periodic workloads:
:func:`~repro.measure.residency.residency_report` composes the per-state
energies from the exactly-simulated regions plus N-weighted compiled
cycle prices (:class:`~repro.measure.residency.CyclePrice`, exact
rationals), while the event-by-event window prices the same segment
multiset in one walk — both round the exact sum once, so they agree to
the last bit.  Dwell times are integer picoseconds and compose exactly.

Irregular points fall back to event-by-event execution: with external
wakes enabled the engine consumes one inter-wake RNG draw per skipped
cycle — exactly as the event-by-event run would — and stops the
macro-step just before a cycle whose draw would fire, stashing the draw
for the exactly-simulated fallback cycle.  A cycle whose fingerprint
mismatches (external wake, parameter change, randomized maintenance)
de-compiles the steady state; macro mode re-engages once two
consecutive cycles match again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import MacroError
from repro.io.wake import WakeEvent, WakeEventType
from repro.measure.residency import CyclePrice, integrate_joules, merge_state_power
from repro.sim.trace import TraceBlock, TraceRecorder
from repro.system.states import POWER_CHANNEL, STATE_CHANNEL, WAKE_CHANNEL
from repro.units import PICOSECONDS_PER_SECOND

#: Trace-channel prefix of the per-rail power channels (mirrors
#: :data:`repro.obs.ledger.RAIL_CHANNEL_PREFIX` without importing obs).
_RAIL_PREFIX = "rail:"

#: Value the ``state`` trace channel carries across a compiled span.  A
#: naive residency walk over a macro trace reports this pseudo-state for
#: the skipped cycles instead of silently misattributing them; given the
#: spans, :func:`~repro.measure.residency.residency_report` replaces it
#: with the exact per-state split.
MACRO_STATE = "macro:compiled"

#: Rails whose ``rail:<name>`` channels a compiled cycle accounts for —
#: the macro executor's declared energy-ledger coverage.  The platform
#: exposes this through ``macro_description()`` and lint rule M308
#: cross-checks it against the live power tree, so a rail added to the
#: model without extending this declaration fails ``repro lint`` instead
#: of silently dropping energy from compiled segments.
MACRO_LEDGER_RAILS: Tuple[str, ...] = (
    "board",
    "chipset_aon",
    "compute",
    "proc_aon",
    "sram_retention",
)


#: Completed cycles before a macro-step may engage.  Detection needs two
#: consecutive bit-for-bit cycles regardless, so the earliest possible
#: skip is at the end of cycle ``WARMUP_CYCLES + 2``.
WARMUP_CYCLES = 1

#: Relative slack for the compiled-segment ledger balance proof.
LEDGER_TOLERANCE = 1e-9


@dataclass
class MacroStats:
    """Counters describing what the engine did during one run."""

    cycles_compiled: int = 0
    macro_steps: int = 0
    fallbacks: int = 0
    fingerprint_mismatches: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "cycles_compiled": self.cycles_compiled,
            "macro_steps": self.macro_steps,
            "fallbacks": self.fallbacks,
            "fingerprint_mismatches": self.fingerprint_mismatches,
        }


@dataclass(frozen=True)
class _Boundary:
    """Everything snapshotted at one wake-to-active cycle boundary."""

    time_ps: int
    trace_index: int
    wake_index: int
    entry_len: int
    exit_len: int
    pending: Tuple[Tuple[int, str], ...]


@dataclass(frozen=True)
class CompiledCycle:
    """One steady-state cycle, compiled for analytic replay."""

    duration_ps: int
    wake_offset_ps: int
    wake_type: WakeEventType
    wake_detail: str
    entry_latencies_ps: Tuple[int, ...]
    exit_latencies_ps: Tuple[int, ...]
    #: Battery-side joules of one cycle (ledger-balance audit trail).
    platform_energy_j: float
    #: Joules of one cycle per ``rail:<name>`` channel.
    rail_energy_j: Dict[str, float]
    #: Merged state-power segments of one cycle, offsets relative to the
    #: cycle start: ``(lo_off, hi_off, state, watts)`` — the residency
    #: vector :func:`~repro.measure.residency.residency_report` replays.
    segments: Tuple[Tuple[int, int, str, float], ...]
    #: Per-state dwell and exact energy of one cycle, priced from
    #: :attr:`segments`.
    price: CyclePrice
    #: Each summarized power channel's value at the cycle boundary,
    #: restored at span end so post-span intervals read correctly.
    boundary_values: Dict[str, Any]
    #: The platform state at the cycle boundary (restored at span end).
    boundary_state: Any


@dataclass(frozen=True)
class MacroSpan:
    """One executed macro-step: ``cycles`` compiled cycles from ``start_ps``."""

    start_ps: int
    cycles: int
    compiled: CompiledCycle

    @property
    def end_ps(self) -> int:
        return self.start_ps + self.cycles * self.compiled.duration_ps


def cycles_for_horizon(
    horizon_days: float,
    idle_interval_s: float,
    maintenance_s: float,
) -> int:
    """Standby cycles covering ``horizon_days`` of simulated time.

    The CLI's ``--horizon`` helper: one cycle is roughly one idle
    interval plus one maintenance burst (flow latencies are microseconds
    and do not move the count).  Raises :class:`~repro.errors.MacroError`
    unless the horizon and the idle interval are finite and positive, the
    maintenance is finite and non-negative, and the period and the cycle
    count they give are finite.
    """
    # chained comparisons are False for NaN, so these refuse it too
    if not 0 < horizon_days < math.inf:
        raise MacroError(f"horizon must be finite and positive (got {horizon_days} days)")
    if not 0 < idle_interval_s < math.inf:
        raise MacroError(f"idle interval must be finite and positive (got {idle_interval_s} s)")
    if not 0 <= maintenance_s < math.inf:
        raise MacroError(f"maintenance must be finite and non-negative (got {maintenance_s} s)")
    period_s = idle_interval_s + maintenance_s
    if not period_s < math.inf:
        raise MacroError(f"cycle period must be finite (got {period_s} s)")
    cycles = horizon_days * 86400.0 / period_s
    if not cycles < math.inf:
        raise MacroError(f"{horizon_days} days of {period_s} s cycles overflows the count")
    return max(1, round(cycles))


class MacroEngine:
    """Steady-state detector + cycle compiler + macro-stepping executor.

    Owned by :class:`~repro.workloads.standby.ConnectedStandbyRunner`
    when macro mode is requested; driven from the runner's wake-to-active
    callback via :meth:`at_boundary`.
    """

    def __init__(self, platform) -> None:
        self.platform = platform
        self.stats = MacroStats()
        #: Executed macro-steps, in time order — the spans
        #: :func:`~repro.measure.residency.residency_report` replays analytically.
        self.spans: List[MacroSpan] = []
        self._prev_boundary: Optional[_Boundary] = None
        self._prev_fingerprint: Optional[Tuple] = None
        self._compiled: Optional[CompiledCycle] = None

    # --- the boundary hook ------------------------------------------------

    def at_boundary(self, runner) -> int:
        """Called at each wake-to-active boundary; returns cycles skipped.

        The runner has just counted one completed cycle.  The engine
        captures it, compares it against the previous cycle, and — once
        two consecutive cycles match bit-for-bit — compiles the cycle
        and advances through as many of the remaining cycles as the
        irregularity sources allow.
        """
        if runner.randomize_maintenance:
            return 0  # per-cycle RNG maintenance: never periodic, never skip
        now = self.platform.kernel.now
        boundary = self._snapshot(runner, now)
        prev = self._prev_boundary
        self._prev_boundary = boundary
        if prev is None:
            return 0
        captured = self._capture_cycle(runner, prev, boundary)
        if captured is None:
            self._note_break()
            self._prev_fingerprint = None
            return 0
        fingerprint, wake = captured
        if fingerprint != self._prev_fingerprint:
            if self._prev_fingerprint is not None:
                self._note_break()
            self._prev_fingerprint = fingerprint
            return 0
        # periodic steady state: two consecutive bit-for-bit cycles
        if runner._cycles_done < WARMUP_CYCLES + 2:
            return 0
        remaining = runner._cycles_target - runner._cycles_done
        if remaining <= 0:
            return 0
        if self._compiled is None:
            self._compiled = self._compile(prev, boundary, fingerprint, wake)
        skipped = self._execute_skip(runner, self._compiled, boundary, remaining)
        if skipped:
            # the post-skip boundary is a replica of this one, k periods on
            self._prev_boundary = self._snapshot(
                runner, self.platform.kernel.now
            )
        return skipped

    # --- detection --------------------------------------------------------

    def _snapshot(self, runner, now: int) -> _Boundary:
        p = self.platform
        return _Boundary(
            time_ps=now,
            trace_index=len(p.trace),
            wake_index=len(p.wake_log),
            entry_len=len(runner.flows.stats.entry_latencies_ps),
            exit_len=len(runner.flows.stats.exit_latencies_ps),
            pending=p.kernel.pending_signature(),
        )

    def _capture_cycle(
        self, runner, prev: _Boundary, boundary: _Boundary
    ) -> Optional[Tuple[Tuple, WakeEvent]]:
        """Fingerprint the cycle between two boundaries (None: uncompilable)."""
        p = self.platform
        duration = boundary.time_ps - prev.time_ps
        if duration <= 0:
            return None
        wakes = p.wake_log[prev.wake_index : boundary.wake_index]
        if len(wakes) != 1 or "@" in wakes[0].detail:
            return None  # multi-wake cycles / time-bearing details stay exact
        wake = wakes[0]
        block: TraceBlock = p.trace.block_since(prev.trace_index, prev.time_ps)
        normalized: List[Tuple[str, int, Any]] = []
        wake_entries = 0
        for channel, offset, value in block.entries:
            if channel == WAKE_CHANNEL:
                wake_entries += 1
                # the wake value embeds the absolute wake time; compare
                # the time-free template instead
                normalized.append(
                    (channel, offset, (wake.event_type.value, wake.detail))
                )
            else:
                normalized.append((channel, offset, value))
        if wake_entries != 1:
            return None
        fingerprint = (
            duration,
            tuple(normalized),
            (wake.event_type, wake.time_ps - prev.time_ps, wake.detail),
            prev.pending,
            boundary.pending,
            tuple(
                runner.flows.stats.entry_latencies_ps[prev.entry_len : boundary.entry_len]
            ),
            tuple(
                runner.flows.stats.exit_latencies_ps[prev.exit_len : boundary.exit_len]
            ),
        )
        return fingerprint, wake

    def _note_break(self) -> None:
        self.stats.fingerprint_mismatches += 1
        if self._compiled is not None:
            self.stats.fallbacks += 1
            self._compiled = None

    # --- compilation ------------------------------------------------------

    def _compile(
        self,
        prev: _Boundary,
        boundary: _Boundary,
        fingerprint: Tuple,
        wake: WakeEvent,
    ) -> CompiledCycle:
        p = self.platform
        duration = boundary.time_ps - prev.time_ps
        platform_energy, rail_energy = self._check_ledger_balance(
            prev.time_ps, boundary.time_ps
        )
        wake_offset = wake.time_ps - prev.time_ps
        segments = tuple(
            (lo - prev.time_ps, hi - prev.time_ps, state, watts)
            for lo, hi, state, watts in merge_state_power(
                p.trace, prev.time_ps, boundary.time_ps
            )
        )
        # read the live tree, not the trace: the boundary runs inside the
        # exit flow's last power-tree batch, which records its levels only
        # when the batch closes
        boundary_values = {POWER_CHANNEL: p.tree.platform_power()}
        for name in sorted(rail_energy):
            boundary_values[_RAIL_PREFIX + name] = p.tree.rail(name).input_power()
        return CompiledCycle(
            duration_ps=duration,
            wake_offset_ps=wake_offset,
            wake_type=wake.event_type,
            wake_detail=wake.detail,
            entry_latencies_ps=fingerprint[5],
            exit_latencies_ps=fingerprint[6],
            platform_energy_j=platform_energy,
            rail_energy_j=rail_energy,
            segments=segments,
            price=CyclePrice.of(segments),
            boundary_values=boundary_values,
            boundary_state=p.trace.value_at(STATE_CHANNEL, boundary.time_ps),
        )

    def _check_ledger_balance(
        self, start_ps: int, end_ps: int
    ) -> Tuple[float, Dict[str, float]]:
        """Prove one compiled segment keeps the energy ledger balanced.

        Every rail channel the run recorded must be declared in the
        platform's macro ledger coverage, and the per-rail energies of
        the segment must sum to the battery-side platform energy.
        Returns the platform energy and the per-rail energies of the
        segment.
        """
        p = self.platform
        trace = p.trace
        rails = {
            name[len(_RAIL_PREFIX) :]
            for name in trace.channels()
            if name.startswith(_RAIL_PREFIX)
        }
        describe = getattr(p, "macro_description", None)
        if describe is not None:
            declared = set(describe().get("ledger_rails", ()))
            undeclared = sorted(rails - declared)
            if undeclared:
                raise MacroError(
                    "rail(s) outside the declared macro ledger coverage: "
                    + ", ".join(undeclared)
                    + "; a compiled cycle would drop their energy from the ledger"
                )
        rail_energy = {
            rail: integrate_joules(trace, _RAIL_PREFIX + rail, start_ps, end_ps)
            for rail in sorted(rails)
        }
        rail_total = sum(rail_energy.values())
        platform_total = integrate_joules(trace, POWER_CHANNEL, start_ps, end_ps)
        slack = LEDGER_TOLERANCE * max(abs(platform_total), 1e-12)
        if abs(rail_total - platform_total) > slack:
            raise MacroError(
                f"compiled segment ledger unbalanced: rails sum to {rail_total!r} J "
                f"but the platform channel carries {platform_total!r} J"
            )
        return platform_total, rail_energy

    # --- execution --------------------------------------------------------

    def _execute_skip(
        self, runner, compiled: CompiledCycle, boundary: _Boundary, remaining: int
    ) -> int:
        p = self.platform
        # never skip the final cycle: the run's closing wake then comes from
        # exactly-simulated trace, so the standard wake-to-wake measurement
        # window only ever crosses *whole* compiled spans — which keeps naive
        # trace consumers (the obs energy ledger, the analyzer) exact instead
        # of cycle-average-approximate at the window edge
        cap = remaining - 1
        skip = cap
        if runner.external_wakes:
            # consume one inter-wake draw per skipped cycle, exactly as the
            # event-by-event run would; a draw that would fire ends the
            # macro-step and is stashed for the exact fallback cycle
            skip = 0
            for _ in range(cap):
                delay_s = runner._next_external_wake_delay()
                if delay_s is not None and delay_s < runner.idle_interval_s * 0.9:
                    runner._stash_external_wake_delay(delay_s)
                    break
                skip += 1
        if skip <= 0:
            return 0
        start_ps = boundary.time_ps
        period = compiled.duration_ps
        end_ps = start_ps + skip * period
        wake_log = p.wake_log
        for j in range(skip):
            wake_log.append(
                WakeEvent(
                    compiled.wake_type,
                    start_ps + j * period + compiled.wake_offset_ps,
                    detail=compiled.wake_detail,
                )
            )
        stats = runner.flows.stats
        stats.entry_latencies_ps.extend(list(compiled.entry_latencies_ps) * skip)
        stats.exit_latencies_ps.extend(list(compiled.exit_latencies_ps) * skip)
        # bulk interval append: one summary interval per power channel —
        # the cycle-average level held across the span, restored to the
        # boundary value at span end — keeps naive trace consumers (the
        # analyzer, the obs ledger) integrating the span to the right
        # energy without per-cycle samples
        period_s = period / PICOSECONDS_PER_SECOND
        trace = p.trace
        trace.record(start_ps, STATE_CHANNEL, MACRO_STATE)
        trace.record(start_ps, POWER_CHANNEL, compiled.platform_energy_j / period_s)
        for rail, joules in compiled.rail_energy_j.items():
            trace.record(start_ps, _RAIL_PREFIX + rail, joules / period_s)
        trace.record(end_ps, STATE_CHANNEL, compiled.boundary_state)
        for channel, value in compiled.boundary_values.items():
            trace.record(end_ps, channel, value)
        self.spans.append(MacroSpan(start_ps, skip, compiled))
        if runner.period_s is not None:
            runner._period_index += skip
        p.kernel.warp(skip * period)
        self.stats.cycles_compiled += skip
        self.stats.macro_steps += 1
        obs = p.obs
        if obs is not None:
            from repro.obs.tracer import EDGE_COMPILED, MACRO_TRACK

            # per-cycle attribution rides on the summary span, so causal
            # consumers (repro.obs.causal, `repro explain`) can expand the
            # span into N wake-rooted cycles without per-cycle records
            span = obs.begin(
                f"macro:compiled x{skip}",
                start_ps,
                track=MACRO_TRACK,
                args={
                    "cycles": skip,
                    "period_ps": period,
                    "wake_type": compiled.wake_type.value,
                    "wake_detail": compiled.wake_detail,
                    "cycle_state_dwell_ps": dict(compiled.price.dwell_ps),
                    "cycle_state_energy_j": compiled.price.rounded_j(),
                    "cycle_rail_energy_j": dict(compiled.rail_energy_j),
                },
            )
            obs.end(span, end_ps)
            obs.flow_rooted(
                span,
                compiled.wake_type.value,
                start_ps + compiled.wake_offset_ps,
                detail=compiled.wake_detail,
                role=EDGE_COMPILED,
            )
            obs.metrics.counter("macro.cycles_compiled").inc(skip)
            obs.metrics.counter("macro.steps").inc()
        return skip
