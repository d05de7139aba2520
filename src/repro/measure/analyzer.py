"""The sampling power analyzer (Keysight N6705B + N6781A substitute).

The paper measures "the power consumption of the four power states ...
Each measurement uses four analog channels with a 50-microsecond sampling
interval" (Sec. 7).  This instrument samples the piecewise-constant
platform-power trace on that grid, applies the instrument's gain accuracy
(99.975 % for the N6781A), and reports window statistics.

:meth:`PowerAnalyzer.measure` never walks the grid point by point: the
trace is piecewise constant, so for every power step the number of grid
points it covers follows arithmetically, making the reading O(#steps)
instead of O(window / 50 us).  The per-step contributions are summed with
exact rational arithmetic and rounded once, so the reported average is
the correctly rounded mean of the grid samples — identical to summing
the raw :meth:`PowerAnalyzer.sample_window` list with :func:`math.fsum`,
and independent of summation order.

The unsampled integral of the same trace is
:func:`~repro.measure.residency.integrate_joules` (free of sampling
error, though a running float sum and not correctly rounded); the
analyzer exists so tests can show the sampled measurement converges to
it — the same validation argument the paper makes for its instrument
choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from repro.errors import MeasurementError
from repro.measure.residency import integrate_joules
from repro.obs.hook import active
from repro.obs.profile import host_phase
from repro.obs.tracer import MEASURE_TRACK
from repro.sim.trace import TraceRecorder
from repro.system.states import POWER_CHANNEL
from repro.units import PICOSECONDS_PER_SECOND, us_to_ps


def _ceil_div(numerator: int, denominator: int) -> int:
    """Ceiling division for non-negative numerators."""
    return -(-numerator // denominator)


@dataclass(frozen=True)
class AnalyzerReading:
    """Statistics of one measurement window."""

    start_ps: int
    end_ps: int
    samples: int
    average_watts: float
    min_watts: float
    max_watts: float

    @property
    def window_s(self) -> float:
        return (self.end_ps - self.start_ps) / PICOSECONDS_PER_SECOND


class PowerAnalyzer:
    """Fixed-interval sampler over the recorded platform-power trace."""

    #: N6781A gain accuracy (Sec. 7: "around 99.975%").
    GAIN_ACCURACY = 0.99975

    def __init__(
        self,
        trace: TraceRecorder,
        sampling_interval_ps: int = us_to_ps(50),
        apply_gain_error: bool = False,
        channel: str = POWER_CHANNEL,
    ) -> None:
        """``channel`` selects the analog input: the default measures the
        battery-side platform total; ``rail:<name>`` channels measure
        individual rails, like the paper's four-channel setup measuring
        "DRAM, storage ..., chipset, crystal oscillators, and the
        processor" separately (Sec. 7)."""
        if sampling_interval_ps <= 0:
            raise MeasurementError("sampling interval must be positive")
        self.trace = trace
        self.sampling_interval_ps = sampling_interval_ps
        self.apply_gain_error = apply_gain_error
        self.channel = channel

    def sample_window(self, start_ps: int, end_ps: int) -> List[float]:
        """Instantaneous power samples on the instrument's grid.

        This is the raw-sample reference path: it visits every grid point
        (O(window / interval)) and exists for tests and validation against
        the closed-form :meth:`measure`.  Grid points that precede the
        first recorded sample read 0.0 W — the instrument shows nothing
        before its input is driven — which can only happen when the
        measurement window starts before the first record of the channel.
        """
        if end_ps <= start_ps:
            raise MeasurementError("empty measurement window")
        steps = list(self.trace.intervals(self.channel, end_ps))
        if not steps:
            raise MeasurementError("no power trace recorded")
        gain = self.GAIN_ACCURACY if self.apply_gain_error else 1.0
        first_record_ps = steps[0][0]
        samples: List[float] = []
        index = 0
        t = start_ps
        while t < end_ps:
            if t < first_record_ps:
                samples.append(0.0)  # window starts before the first record
            else:
                while index + 1 < len(steps) and steps[index][1] <= t:
                    index += 1
                samples.append(steps[index][2] * gain)
            t += self.sampling_interval_ps
        return samples

    def _sample_runs(self, start_ps: int, end_ps: int) -> Tuple[int, List[Tuple[int, float]]]:
        """Closed-form grid sampling: ``(total_samples, [(count, watts)])``.

        The grid points are ``start_ps + k * interval`` for ``k`` in
        ``[0, total)``.  For each piecewise-constant step the covered grid
        indices form a contiguous range computed arithmetically, so the
        whole decomposition is O(#steps).  The runs partition the grid:
        their counts sum to ``total``.
        """
        if end_ps <= start_ps:
            raise MeasurementError("empty measurement window")
        interval = self.sampling_interval_ps
        total = _ceil_div(end_ps - start_ps, interval)
        steps = list(self.trace.intervals(self.channel, end_ps, start_ps=start_ps))
        if not steps:
            raise MeasurementError("no power trace recorded")
        gain = self.GAIN_ACCURACY if self.apply_gain_error else 1.0
        runs: List[Tuple[int, float]] = []
        first_record_ps = steps[0][0]
        if start_ps < first_record_ps:
            # grid points before the first record read 0.0 W
            zero_count = min(total, _ceil_div(first_record_ps - start_ps, interval))
            if zero_count:
                runs.append((zero_count, 0.0))
        for lo, hi, watts in steps:
            k_lo = _ceil_div(lo - start_ps, interval) if lo > start_ps else 0
            k_hi = _ceil_div(hi - start_ps, interval) if hi > start_ps else 0
            if k_hi > total:
                k_hi = total
            if k_hi > k_lo:
                runs.append((k_hi - k_lo, watts * gain))
        return total, runs

    def measure(self, start_ps: int, end_ps: int) -> AnalyzerReading:
        """One reading over the window, in O(#steps) of the power trace.

        The average is the correctly rounded mean of the grid samples
        (exact rational accumulation, one final rounding), so it does not
        depend on the order the samples would have been summed in.
        """
        with host_phase("measure"):
            total, runs = self._sample_runs(start_ps, end_ps)
            acc = Fraction(0)
            for count, watts in runs:
                acc += Fraction(watts) * count
            values = [watts for _count, watts in runs]
            reading = AnalyzerReading(
                start_ps=start_ps,
                end_ps=end_ps,
                samples=total,
                average_watts=float(acc / total),
                min_watts=min(values),
                max_watts=max(values),
            )
        tracer = active().tracer
        if tracer is not None:
            window = tracer.begin(
                f"analyzer:{self.channel}",
                start_ps,
                track=MEASURE_TRACK,
                args={"average_watts": reading.average_watts, "samples": total},
            )
            tracer.end(window, end_ps)
            tracer.metrics.counter("analyzer.measurements").inc()
        return reading

    def exact_average(self, start_ps: int, end_ps: int) -> float:
        """Exact trace integral over the window (the reference value)."""
        if end_ps <= start_ps:
            raise MeasurementError("empty measurement window")
        joules = integrate_joules(self.trace, self.channel, start_ps, end_ps)
        return joules / ((end_ps - start_ps) / PICOSECONDS_PER_SECOND)
