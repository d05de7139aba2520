"""State residency and per-state energy from the simulation trace.

Substitutes for the Intel Performance Counter Monitor the paper uses to
measure "the percentage of time the processor spends in a given power
state" (Sec. 7), and provides the per-state energy split behind
Equation 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, Iterable, List, Tuple

from repro.errors import MeasurementError
from repro.sim.trace import TraceRecorder
from repro.system.states import POWER_CHANNEL, STATE_CHANNEL
from repro.units import PICOSECONDS_PER_SECOND


def clipped_intervals(
    trace: TraceRecorder, channel: str, start_ps: int, end_ps: int
) -> List[Tuple[int, int, Any]]:
    """Step intervals of ``channel`` clipped to ``[start_ps, end_ps)``.

    The trace's first interval may begin before ``start_ps`` (it reports
    the value that was already current); it is clipped so the intervals
    cover exactly the requested window, and empty ones are dropped.
    """
    out = []
    for lo, hi, value in trace.intervals(channel, end_ps, start_ps=start_ps):
        lo = max(lo, start_ps)
        hi = min(hi, end_ps)
        if hi > lo:
            out.append((lo, hi, value))
    return out


def integrate_joules(
    trace: TraceRecorder, channel: str, start_ps: int, end_ps: int
) -> float:
    """Exact integral of a piecewise-constant power channel, in joules."""
    total = 0.0
    for lo, hi, watts in clipped_intervals(trace, channel, start_ps, end_ps):
        total += watts * ((hi - lo) / PICOSECONDS_PER_SECOND)
    return total


def merge_state_power(
    trace: TraceRecorder, start_ps: int, end_ps: int
) -> List[Tuple[int, int, str, float]]:
    """``(lo, hi, state, watts)`` segments merging state and power steps.

    The common substrate of :func:`energy_by_state` and
    :class:`CyclePrice` (the macro-stepping cycle compiler and the
    budget probe price cycles with it): the window is
    partitioned at every record of either channel, so each segment
    carries one platform state and one constant battery-side power.
    Segment boundaries depend only on the records inside the window —
    the property that lets the macro executor compose per-cycle segment
    lists into the exact run's segmentation bit-for-bit.
    """
    if end_ps <= start_ps:
        raise MeasurementError("empty measurement window")
    power_steps = clipped_intervals(trace, POWER_CHANNEL, start_ps, end_ps)
    state_steps = clipped_intervals(trace, STATE_CHANNEL, start_ps, end_ps)
    if not power_steps or not state_steps:
        raise MeasurementError("trace has no samples inside the window")
    segments: List[Tuple[int, int, str, float]] = []
    state_index = 0
    for lo, hi, watts in power_steps:
        position = lo
        while position < hi:
            while (
                state_index + 1 < len(state_steps)
                and state_steps[state_index][1] <= position
            ):
                state_index += 1
            s_lo, s_hi, state = state_steps[state_index]
            segment_end = min(hi, s_hi)
            if segment_end <= position:
                segment_end = hi  # state channel exhausted; stay on last value
            segments.append((position, segment_end, state, watts))
            position = segment_end
    return segments


@dataclass(frozen=True)
class CyclePrice:
    """Per-state dwell and exact energy of a run of merged segments.

    The priced form of Equation 1 — power x residency per platform
    state — for one standby cycle or any window of one.  Each segment
    contributes the float product ``watts * ((hi - lo) / 1e12)``, the
    very value :func:`energy_by_state` feeds :func:`math.fsum`, and the
    products are summed exactly, so rounding one state's energy once
    reproduces ``energy_by_state`` bit-for-bit however prices are added
    and scaled.
    """

    dwell_ps: Dict[str, int] = field(default_factory=dict)
    energy_j: Dict[str, Fraction] = field(default_factory=dict)

    @classmethod
    def of(cls, segments: Iterable[Tuple[int, int, str, float]]) -> "CyclePrice":
        """Price ``(lo, hi, state, watts)`` segments (see :func:`merge_state_power`)."""
        dwell: Dict[str, int] = {}
        energy: Dict[str, Fraction] = {}
        for lo, hi, state, watts in segments:
            dwell[state] = dwell.get(state, 0) + (hi - lo)
            energy[state] = energy.get(state, Fraction()) + Fraction(
                watts * ((hi - lo) / PICOSECONDS_PER_SECOND)
            )
        return cls(dwell, energy)

    def __add__(self, other: "CyclePrice") -> "CyclePrice":
        dwell = dict(self.dwell_ps)
        energy = dict(self.energy_j)
        for state, dwell_ps in other.dwell_ps.items():
            dwell[state] = dwell.get(state, 0) + dwell_ps
            energy[state] = energy.get(state, Fraction()) + other.energy_j[state]
        return CyclePrice(dwell, energy)

    def __mul__(self, cycles: int) -> "CyclePrice":
        return CyclePrice(
            {state: cycles * dwell_ps for state, dwell_ps in self.dwell_ps.items()},
            {state: cycles * joules for state, joules in self.energy_j.items()},
        )

    def power_w(self, state: str) -> Fraction:
        """Exact mean watts while in ``state`` (0 when never entered)."""
        dwell_ps = self.dwell_ps.get(state, 0)
        if dwell_ps == 0:
            return Fraction(0)
        return self.energy_j[state] / Fraction(dwell_ps, PICOSECONDS_PER_SECOND)


def energy_by_state(
    trace: TraceRecorder, start_ps: int, end_ps: int
) -> Dict[str, float]:
    """Joules consumed in each platform state within the window.

    Merges the piecewise-constant ``platform`` power channel with the
    ``state`` channel.  Each per-state total is the correctly-rounded sum
    (:func:`math.fsum`) of its segment energies, so the result depends
    only on the *multiset* of segments — not their order — which is what
    lets the macro-stepping executor reproduce it analytically,
    bit-for-bit, without walking every cycle.
    """
    products: Dict[str, List[float]] = {}
    for lo, hi, state, watts in merge_state_power(trace, start_ps, end_ps):
        products.setdefault(state, []).append(
            watts * ((hi - lo) / PICOSECONDS_PER_SECOND)
        )
    return {state: math.fsum(values) for state, values in products.items()}


@dataclass
class ResidencyReport:
    """Residencies, per-state energy and per-state average power."""

    window_ps: int
    dwell_ps: Dict[str, int] = field(default_factory=dict)
    energy_j: Dict[str, float] = field(default_factory=dict)

    @property
    def window_s(self) -> float:
        return self.window_ps / PICOSECONDS_PER_SECOND

    def residency(self, state: str) -> float:
        """Fraction of the window spent in ``state``."""
        return self.dwell_ps.get(state, 0) / self.window_ps

    def average_power(self, state: str) -> float:
        """Average battery-side watts while in ``state``."""
        dwell = self.dwell_ps.get(state, 0)
        if dwell == 0:
            return 0.0
        return self.energy_j.get(state, 0.0) / (dwell / PICOSECONDS_PER_SECOND)

    def total_average_power(self) -> float:
        """Average watts over the whole window (Equation 1's left side).

        Correctly rounded over the per-state energies, so the total is
        independent of state insertion order (exact and macro-stepped
        runs build the dict along different walks).
        """
        return math.fsum(self.energy_j.values()) / self.window_s

    def equation1_terms(self) -> Dict[str, float]:
        """Per-state ``power x residency`` terms of Equation 1, in watts."""
        return {
            state: self.average_power(state) * self.residency(state)
            for state in self.dwell_ps
        }


def residency_report(
    trace: TraceRecorder, start_ps: int, end_ps: int
) -> ResidencyReport:
    """Build a :class:`ResidencyReport` for the window."""
    report = ResidencyReport(window_ps=end_ps - start_ps)
    for lo, hi, state in clipped_intervals(trace, STATE_CHANNEL, start_ps, end_ps):
        report.dwell_ps[state] = report.dwell_ps.get(state, 0) + (hi - lo)
    report.energy_j = energy_by_state(trace, start_ps, end_ps)
    return report
