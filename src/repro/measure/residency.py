"""State residency and per-state energy from the simulation trace.

Substitutes for the Intel Performance Counter Monitor the paper uses to
measure "the percentage of time the processor spends in a given power
state" (Sec. 7), and provides the per-state energy split behind
Equation 1.  :class:`CyclePrice` is the one pricer of trace segments:
every per-state, per-cause and per-cell energy is its exact sum, rounded
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, Hashable, Iterable, List, Sequence, Tuple

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
    """Integral of a piecewise-constant power channel, in joules.

    A running float sum, so not correctly rounded and order-dependent in
    its last bits.  It stays for the per-domain ledger, the macro ledger
    audit and the analyzer's reference, which compare within tolerances
    and whose recorded values rest on this rounding; energies that must
    compose bit-for-bit go through :class:`CyclePrice`.
    """
    total = 0.0
    for lo, hi, watts in clipped_intervals(trace, channel, start_ps, end_ps):
        total += watts * ((hi - lo) / PICOSECONDS_PER_SECOND)
    return total


def merge_state_power(
    trace: TraceRecorder, start_ps: int, end_ps: int
) -> List[Tuple[int, int, str, float]]:
    """``(lo, hi, state, watts)`` segments merging state and power steps.

    The common substrate of every per-state price (:func:`residency_report`,
    the macro-stepping cycle compiler, the budget probe and the causal
    rollups): the window is
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
    """Per-key dwell and exact energy of a run of ``(lo, hi, key, watts)`` segments.

    The priced form of Equation 1 — power x residency — for one standby
    cycle or any window of one.  The key may be any hashable label: a
    platform state (the segments of :func:`merge_state_power`), a wake
    cause, or a ``(rail, state, cause)`` attribution cell.  Each segment
    contributes the float product ``watts * ((hi - lo) / 1e12)`` and the
    products are summed exactly, so rounding one key's energy once gives
    the correctly rounded (:func:`math.fsum`) sum of its products,
    bit-for-bit, however prices are added and scaled.
    """

    dwell_ps: Dict[Hashable, int] = field(default_factory=dict)
    energy_j: Dict[Hashable, Fraction] = field(default_factory=dict)

    @classmethod
    def of(cls, segments: Iterable[Tuple[int, int, Hashable, float]]) -> "CyclePrice":
        """Price ``(lo, hi, key, watts)`` segments, keys in first-seen order.

        A finite float is an integer over a power of two, so each key's
        products accumulate exactly as one integer numerator over the
        finest power-of-two denominator seen so far, and one
        :class:`~fractions.Fraction` per key is built at the end.
        """
        dwell: Dict[Hashable, int] = {}
        sums: Dict[Hashable, List[int]] = {}  # key -> [numerator, log2 denominator]
        for lo, hi, key, watts in segments:
            n, d = (watts * ((hi - lo) / PICOSECONDS_PER_SECOND)).as_integer_ratio()
            shift = d.bit_length() - 1
            acc = sums.get(key)
            if acc is None:
                sums[key] = acc = [0, shift]
            elif shift > acc[1]:
                acc[:] = acc[0] << (shift - acc[1]), shift
            acc[0] += n << (acc[1] - shift)
            dwell[key] = dwell.get(key, 0) + (hi - lo)
        return cls(dwell, {key: Fraction(n, 1 << shift) for key, (n, shift) in sums.items()})

    def __add__(self, other: "CyclePrice") -> "CyclePrice":
        dwell = dict(self.dwell_ps)
        energy = dict(self.energy_j)
        for key, dwell_ps in other.dwell_ps.items():
            dwell[key] = dwell.get(key, 0) + dwell_ps
            energy[key] = energy.get(key, Fraction()) + other.energy_j[key]
        return CyclePrice(dwell, energy)

    def __mul__(self, cycles: int) -> "CyclePrice":
        return CyclePrice(
            {key: cycles * dwell_ps for key, dwell_ps in self.dwell_ps.items()},
            {key: cycles * joules for key, joules in self.energy_j.items()},
        )

    def power_w(self, key: Hashable) -> Fraction:
        """Exact mean watts while in ``key`` (0 when never entered)."""
        dwell_ps = self.dwell_ps.get(key, 0)
        if dwell_ps == 0:
            return Fraction(0)
        return self.energy_j[key] / Fraction(dwell_ps, PICOSECONDS_PER_SECOND)

    def rounded_j(self) -> Dict[Hashable, float]:
        """Each key's energy rounded once to the nearest float."""
        return {key: float(joules) for key, joules in self.energy_j.items()}


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

    def total_energy_j(self) -> float:
        """Joules over the window, correctly rounded over the states, so
        independent of their order (exact and macro runs differ in it)."""
        return math.fsum(self.energy_j.values())

    def total_average_power(self) -> float:
        """Average watts over the whole window (Equation 1's left side)."""
        return self.total_energy_j() / self.window_s

    def equation1_terms(self) -> Dict[str, float]:
        """Per-state ``power x residency`` terms of Equation 1, in watts."""
        return {
            state: self.average_power(state) * self.residency(state)
            for state in self.dwell_ps
        }


def residency_report(
    trace: TraceRecorder,
    start_ps: int,
    end_ps: int,
    spans: Sequence[Any] = (),
) -> ResidencyReport:
    """A :class:`ResidencyReport` for the window: one :class:`CyclePrice`.

    ``spans`` are the executed macro-steps (:class:`~repro.sim.macro.MacroSpan`),
    across which the trace holds only summary records.  The trace prices
    the exactly simulated regions; whole skipped cycles contribute
    ``N x`` the compiled cycle's price, and a window edge inside a span
    clips the compiled segments where the event-by-event walk would clip
    its intervals.  Energies stay exact until one rounding per state, so
    a macro-stepped window equals the event-by-event one bit-for-bit.
    """
    if end_ps <= start_ps:
        raise MeasurementError("empty measurement window")

    def clipped(compiled: Any, lo_off: int, hi_off: int) -> CyclePrice:
        return CyclePrice.of(
            (max(lo, lo_off), min(hi, hi_off), state, watts)
            for lo, hi, state, watts in compiled.segments
            if hi > lo_off and lo < hi_off
        )

    parts: List[CyclePrice] = []
    cursor = start_ps
    for span in sorted(spans, key=lambda s: s.start_ps):
        lo = max(span.start_ps, start_ps)
        hi = min(span.end_ps, end_ps)
        if hi <= lo:
            continue
        if lo > cursor:
            parts.append(CyclePrice.of(merge_state_power(trace, cursor, lo)))
        compiled = span.compiled
        period = compiled.duration_ps
        first_cycle, head_off = divmod(lo - span.start_ps, period)
        last_cycle, tail_off = divmod(hi - span.start_ps, period)
        if first_cycle == last_cycle:
            parts.append(clipped(compiled, head_off, tail_off))
        else:
            if head_off:
                parts.append(clipped(compiled, head_off, period))
            full = last_cycle - first_cycle - (1 if head_off else 0)
            if full:
                parts.append(compiled.price * full)
            if tail_off:
                parts.append(clipped(compiled, 0, tail_off))
        cursor = hi
    if cursor < end_ps:
        parts.append(CyclePrice.of(merge_state_power(trace, cursor, end_ps)))
    price = sum(parts[1:], parts[0])
    return ResidencyReport(end_ps - start_ps, price.dwell_ps, price.rounded_j())


#: The name the standby runner calls for a window with macro spans, so
#: that wrapping either name shows which kind of window was priced.
macro_residency_report = residency_report
