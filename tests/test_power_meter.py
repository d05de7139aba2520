"""The trace as the platform's energy meter.

The simulator keeps one energy record: the power channels of the
:class:`~repro.sim.trace.TraceRecorder`, integrated exactly by
:func:`~repro.measure.residency.integrate_joules` (and sampled by the
:class:`~repro.measure.analyzer.PowerAnalyzer`).  Negative or non-finite
power is rejected where it enters the power tree, so the trace never
records it.
"""

import pytest

from repro.errors import MeasurementError, PowerError
from repro.measure.analyzer import PowerAnalyzer
from repro.measure.residency import integrate_joules
from repro.power.regulator import EfficiencyCurve
from repro.sim.trace import TraceRecorder
from repro.units import SECOND


def _trace(*records):
    trace = TraceRecorder()
    for time_ps, channel, watts in records:
        trace.record(time_ps, channel, watts)
    return trace


class TestIntegration:
    def test_constant_power_energy(self):
        trace = _trace((0, "x", 2.0))
        assert integrate_joules(trace, "x", 0, SECOND) == pytest.approx(2.0)

    def test_piecewise_power_energy(self):
        trace = _trace((0, "x", 1.0), (SECOND, "x", 3.0))
        assert integrate_joules(trace, "x", 0, 2 * SECOND) == pytest.approx(1.0 + 3.0)

    def test_energy_of_unknown_channel_is_zero(self):
        assert integrate_joules(TraceRecorder(), "nothing", 0, SECOND) == 0.0

    def test_total_energy_sums_channels(self, tree, trace):
        tree.new_rail("a", 1.0).new_domain("da").new_component("ca", 1.0)
        tree.new_rail("b", 1.0).new_domain("db").new_component("cb", 2.0)
        total = integrate_joules(trace, "platform", 0, SECOND)
        assert total == pytest.approx(3.0)
        assert total == integrate_joules(trace, "rail:a", 0, SECOND) + integrate_joules(
            trace, "rail:b", 0, SECOND
        )

    def test_power_query(self):
        trace = _trace((0, "a", 1.5))
        assert trace.value_at("a", SECOND) == 1.5
        assert trace.value_at("missing", SECOND) is None

    def test_total_power(self, tree, trace):
        tree.new_rail("a", 1.0).new_domain("da").new_component("ca", 1.0)
        tree.new_rail("b", 1.0).new_domain("db").new_component("cb", 0.25)
        assert trace.last("platform").value == pytest.approx(1.25)

    def test_negative_power_rejected(self, tree, trace):
        domain = tree.new_rail("a", 1.0).new_domain("d")
        with pytest.raises(PowerError):
            domain.new_component("c", -1.0)
        with pytest.raises(PowerError):
            tree.new_rail("b", 1.0, quiescent_watts=-1.0)
        assert trace.last("platform").value == 0.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_power_rejected(self, tree, kernel, trace, bad):
        component = tree.new_rail("a", 1.0).new_domain("d").new_component("c", 1.0)
        kernel.advance_to(10)
        with pytest.raises(PowerError, match="finite and non-negative"):
            tree.new_rail("r", 1.0, EfficiencyCurve([(1.0, 0.9)]), bad)
        with pytest.raises(PowerError, match="positive and finite"):
            tree.new_rail("s", 1.0, EfficiencyCurve([(bad, 0.9)]))
        with pytest.raises(PowerError, match="finite and non-negative"):
            component.set_leakage(bad)
        assert trace.last("platform").value == 1.0
        assert integrate_joules(trace, "platform", 0, 10) == 1.0 * 10 / 1e12

    def test_time_going_backwards_rejected(self):
        trace = _trace((100, "a", 1.0))
        with pytest.raises(ValueError, match="went backwards"):
            trace.record(50, "a", 2.0)

    def test_advance_integrates_without_change(self):
        trace = _trace((0, "a", 4.0))
        assert integrate_joules(trace, "a", 0, SECOND // 2) == pytest.approx(2.0)

    def test_channels_view(self, tree, trace):
        tree.new_rail("a", 1.0)
        assert trace.channels() == ["platform", "rail:a"]


class TestMarks:
    """Windowed readings: a mark is the window's start time."""

    def test_energy_since_mark(self):
        trace = _trace((0, "a", 1.0))
        assert integrate_joules(trace, "a", SECOND, 2 * SECOND) == pytest.approx(1.0)

    def test_energy_since_mark_per_channel(self):
        trace = _trace((0, "a", 1.0), (0, "b", 2.0))
        assert integrate_joules(trace, "b", SECOND, 2 * SECOND) == pytest.approx(2.0)

    def test_average_power_since_mark(self):
        trace = _trace((0, "a", 1.0), (SECOND, "a", 3.0))
        analyzer = PowerAnalyzer(trace, channel="a")
        assert analyzer.exact_average(0, 2 * SECOND) == pytest.approx(2.0)

    def test_unknown_mark_rejected(self):
        analyzer = PowerAnalyzer(_trace((0, "a", 1.0)), channel="nope")
        with pytest.raises(MeasurementError, match="no power trace"):
            analyzer.measure(0, SECOND)

    def test_zero_window_rejected(self):
        analyzer = PowerAnalyzer(_trace((0, "a", 1.0)), channel="a")
        with pytest.raises(MeasurementError):
            analyzer.exact_average(SECOND, SECOND)

    def test_channel_created_after_mark_counts_fully(self):
        trace = _trace((0, "a", 1.0), (SECOND, "late", 5.0))
        window = [integrate_joules(trace, ch, SECOND, 2 * SECOND) for ch in ("a", "late")]
        assert sum(window) == pytest.approx(1.0 + 5.0)
        assert integrate_joules(trace, "late", 0, 2 * SECOND) == pytest.approx(5.0)
