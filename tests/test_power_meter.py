"""Tests for the energy meter."""

import pytest

from repro.errors import MeasurementError
from repro.power.meter import EnergyMeter
from repro.units import SECOND


class TestIntegration:
    def test_constant_power_energy(self):
        meter = EnergyMeter()
        meter.set_power(0, "x", 2.0)
        assert meter.energy("x", up_to_ps=SECOND) == pytest.approx(2.0)

    def test_piecewise_power_energy(self):
        meter = EnergyMeter()
        meter.set_power(0, "x", 1.0)
        meter.set_power(SECOND, "x", 3.0)
        assert meter.energy("x", up_to_ps=2 * SECOND) == pytest.approx(1.0 + 3.0)

    def test_energy_of_unknown_channel_is_zero(self):
        meter = EnergyMeter()
        assert meter.energy("nothing") == 0.0

    def test_total_energy_sums_channels(self):
        meter = EnergyMeter()
        meter.set_power(0, "a", 1.0)
        meter.set_power(0, "b", 2.0)
        assert meter.total_energy(up_to_ps=SECOND) == pytest.approx(3.0)

    def test_power_query(self):
        meter = EnergyMeter()
        meter.set_power(0, "a", 1.5)
        assert meter.power("a") == 1.5
        assert meter.power("missing") == 0.0

    def test_total_power(self):
        meter = EnergyMeter()
        meter.set_power(0, "a", 1.0)
        meter.set_power(0, "b", 0.25)
        assert meter.total_power() == pytest.approx(1.25)

    def test_negative_power_rejected(self):
        meter = EnergyMeter()
        with pytest.raises(MeasurementError):
            meter.set_power(0, "a", -1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_power_rejected(self, bad):
        meter = EnergyMeter()
        meter.set_power(0, "a", 1.0)
        with pytest.raises(MeasurementError, match="finite and non-negative"):
            meter.set_power(10, "a", bad)
        assert meter.power("a") == 1.0
        assert meter.energy("a", up_to_ps=10) == 1.0 * 10 / 1e12

    def test_time_going_backwards_rejected(self):
        meter = EnergyMeter()
        meter.set_power(100, "a", 1.0)
        with pytest.raises(MeasurementError):
            meter.set_power(50, "a", 2.0)

    def test_advance_integrates_without_change(self):
        meter = EnergyMeter()
        meter.set_power(0, "a", 4.0)
        meter.advance(SECOND // 2)
        assert meter.energy("a") == pytest.approx(2.0)

    def test_channels_view(self):
        meter = EnergyMeter()
        meter.set_power(0, "a", 1.0)
        assert meter.channels() == {"a": 1.0}


class TestMarks:
    def test_energy_since_mark(self):
        meter = EnergyMeter()
        meter.set_power(0, "a", 1.0)
        meter.mark("m", SECOND)
        assert meter.energy_since("m", 2 * SECOND) == pytest.approx(1.0)

    def test_energy_since_mark_per_channel(self):
        meter = EnergyMeter()
        meter.set_power(0, "a", 1.0)
        meter.set_power(0, "b", 2.0)
        meter.mark("m", SECOND)
        assert meter.energy_since("m", 2 * SECOND, channel="b") == pytest.approx(2.0)

    def test_average_power_since_mark(self):
        meter = EnergyMeter()
        meter.set_power(0, "a", 1.0)
        meter.mark("m", 0)
        meter.set_power(SECOND, "a", 3.0)
        assert meter.average_power_since("m", 2 * SECOND) == pytest.approx(2.0)

    def test_unknown_mark_rejected(self):
        meter = EnergyMeter()
        with pytest.raises(MeasurementError):
            meter.energy_since("nope", SECOND)

    def test_zero_window_rejected(self):
        meter = EnergyMeter()
        meter.set_power(0, "a", 1.0)
        meter.mark("m", SECOND)
        with pytest.raises(MeasurementError):
            meter.average_power_since("m", SECOND)

    def test_channel_created_after_mark_counts_fully(self):
        meter = EnergyMeter()
        meter.set_power(0, "a", 1.0)
        meter.mark("m", SECOND)
        meter.set_power(SECOND, "late", 5.0)
        assert meter.energy_since("m", 2 * SECOND) == pytest.approx(1.0 + 5.0)
