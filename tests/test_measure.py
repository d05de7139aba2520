"""Tests for the measurement instruments."""

import pytest

from repro.errors import MeasurementError
from repro.measure.analyzer import PowerAnalyzer
from repro.measure.residency import residency_report
from repro.sim.trace import TraceRecorder
from repro.units import MS, SECOND, us_to_ps


def standby_like_trace():
    """A synthetic trace resembling one standby cycle."""
    trace = TraceRecorder()
    trace.record(0, "state", "active")
    trace.record(0, "platform", 3.0)
    trace.record(100 * MS, "state", "entry")
    trace.record(100 * MS, "platform", 0.9)
    trace.record(101 * MS, "state", "drips")
    trace.record(101 * MS, "platform", 0.060)
    trace.record(601 * MS, "state", "exit")
    trace.record(601 * MS, "platform", 1.2)
    trace.record(602 * MS, "state", "active")
    trace.record(602 * MS, "platform", 3.0)
    return trace


class TestResidencyReport:
    def test_dwell_and_residency(self):
        trace = standby_like_trace()
        report = residency_report(trace, 0, 700 * MS)
        assert report.dwell_ps["drips"] == 500 * MS
        assert report.residency("drips") == pytest.approx(500 / 700)

    def test_per_state_power(self):
        trace = standby_like_trace()
        report = residency_report(trace, 0, 700 * MS)
        assert report.average_power("drips") == pytest.approx(0.060)
        assert report.average_power("active") == pytest.approx(3.0)

    def test_total_average_is_equation_1(self):
        trace = standby_like_trace()
        report = residency_report(trace, 0, 700 * MS)
        terms = report.equation1_terms()
        assert sum(terms.values()) == pytest.approx(report.total_average_power())

    def test_energy_by_state_window_clipping(self):
        trace = standby_like_trace()
        report = residency_report(trace, 101 * MS, 601 * MS)
        assert set(report.energy_j) == {"drips"}
        assert report.dwell_ps == {"drips": 500 * MS}
        assert report.energy_j["drips"] == pytest.approx(0.060 * 0.5)
        # a window edge inside a state clips both dwell and energy
        report = residency_report(trace, 100 * MS + MS // 2, 601 * MS + MS // 4)
        assert report.dwell_ps == {"entry": MS // 2, "drips": 500 * MS, "exit": MS // 4}
        assert report.energy_j["entry"] == pytest.approx(0.9 * 0.0005)
        assert report.energy_j["exit"] == pytest.approx(1.2 * 0.00025)

    def test_empty_window_rejected(self):
        trace = standby_like_trace()
        with pytest.raises(MeasurementError):
            residency_report(trace, 100, 100)

    def test_unknown_state_power_zero(self):
        trace = standby_like_trace()
        report = residency_report(trace, 0, 700 * MS)
        assert report.average_power("nonexistent") == 0.0


class TestPowerAnalyzer:
    def test_sampled_average_converges_to_exact(self):
        """The 50 us sampler agrees with the exact integral on long windows
        — the instrument-validation argument of Sec. 7."""
        trace = standby_like_trace()
        analyzer = PowerAnalyzer(trace, sampling_interval_ps=us_to_ps(50))
        reading = analyzer.measure(0, 700 * MS)
        exact = analyzer.exact_average(0, 700 * MS)
        assert reading.average_watts == pytest.approx(exact, rel=0.002)

    def test_min_max(self):
        trace = standby_like_trace()
        analyzer = PowerAnalyzer(trace)
        reading = analyzer.measure(0, 700 * MS)
        assert reading.min_watts == pytest.approx(0.060)
        assert reading.max_watts == pytest.approx(3.0)

    def test_gain_error_applied(self):
        trace = standby_like_trace()
        ideal = PowerAnalyzer(trace).measure(0, 700 * MS)
        lossy = PowerAnalyzer(trace, apply_gain_error=True).measure(0, 700 * MS)
        assert lossy.average_watts == pytest.approx(
            ideal.average_watts * PowerAnalyzer.GAIN_ACCURACY
        )

    def test_coarse_sampling_misses_short_phases(self):
        """Sampling slower than a phase can alias it away entirely."""
        trace = TraceRecorder()
        trace.record(0, "platform", 0.0)
        trace.record(10, "platform", 5.0)   # 10 ps blip
        trace.record(20, "platform", 0.0)
        analyzer = PowerAnalyzer(trace, sampling_interval_ps=SECOND)
        reading = analyzer.measure(0, 2 * SECOND)
        assert reading.average_watts == 0.0

    def test_invalid_setup_rejected(self):
        trace = standby_like_trace()
        with pytest.raises(MeasurementError):
            PowerAnalyzer(trace, sampling_interval_ps=0)
        analyzer = PowerAnalyzer(trace)
        with pytest.raises(MeasurementError):
            analyzer.measure(10, 10)

    def test_no_trace_rejected(self):
        analyzer = PowerAnalyzer(TraceRecorder())
        with pytest.raises(MeasurementError):
            analyzer.measure(0, 100)
