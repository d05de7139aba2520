"""Tests for regulators and efficiency curves."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PowerError
from repro.power.regulator import EfficiencyCurve, Regulator

NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def interpolated(points, load_watts):
    """The curve's efficiency as first written: no flat shortcut, log10 per call."""
    points = sorted(points)
    if load_watts <= 0:
        return points[0][1]
    if load_watts <= points[0][0]:
        return points[0][1]
    if load_watts >= points[-1][0]:
        return points[-1][1]
    x = math.log10(load_watts)
    for (load_lo, eff_lo), (load_hi, eff_hi) in zip(points, points[1:]):
        if load_lo <= load_watts <= load_hi:
            x_lo, x_hi = math.log10(load_lo), math.log10(load_hi)
            if x_hi == x_lo:
                return eff_hi
            t = (x - x_lo) / (x_hi - x_lo)
            return eff_lo + t * (eff_hi - eff_lo)
    return points[-1][1]


_curve_loads = st.one_of(st.floats(1e-6, 100.0), st.sampled_from([1e-3, 0.01, 1.0]))
_efficiencies = st.floats(0.05, 1.0)
_flat_curves = st.builds(
    lambda loads, eff: [(load, eff) for load in loads],
    st.lists(_curve_loads, min_size=1, max_size=5),
    _efficiencies,
)
_curves = st.one_of(
    _flat_curves, st.lists(st.tuples(_curve_loads, _efficiencies), min_size=1, max_size=6)
)


class TestEfficiencyCurve:
    def test_constant_curve(self):
        curve = EfficiencyCurve.constant(0.74)
        assert curve.efficiency(1e-5) == pytest.approx(0.74)
        assert curve.efficiency(10.0) == pytest.approx(0.74)

    def test_interpolation_in_log_space(self):
        curve = EfficiencyCurve([(0.01, 0.5), (1.0, 0.9)])
        # geometric midpoint of 0.01 and 1.0 is 0.1
        assert curve.efficiency(0.1) == pytest.approx(0.7)

    def test_clamped_below_and_above(self):
        curve = EfficiencyCurve([(0.01, 0.5), (1.0, 0.9)])
        assert curve.efficiency(0.0001) == pytest.approx(0.5)
        assert curve.efficiency(100.0) == pytest.approx(0.9)

    def test_zero_load_uses_first_point(self):
        curve = EfficiencyCurve([(0.01, 0.5), (1.0, 0.9)])
        assert curve.efficiency(0.0) == pytest.approx(0.5)

    def test_invalid_points_rejected(self):
        with pytest.raises(PowerError):
            EfficiencyCurve([])
        with pytest.raises(PowerError):
            EfficiencyCurve([(-1.0, 0.5)])
        with pytest.raises(PowerError):
            EfficiencyCurve([(1.0, 1.5)])

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_load_point_rejected(self, bad):
        with pytest.raises(PowerError, match="positive and finite"):
            EfficiencyCurve([(bad, 0.9)])
        with pytest.raises(PowerError, match="positive and finite"):
            EfficiencyCurve([(0.01, 0.5), (bad, 0.9)])

    @settings(max_examples=200, deadline=None)
    @given(
        points=_curves,
        loads=st.lists(
            st.one_of(st.floats(-1.0, 1000.0), st.just(0.0), st.just(math.nan)), max_size=8
        ),
        at_points=st.booleans(),
    )
    def test_efficiency_equals_the_interpolation(self, points, loads, at_points):
        """Flat or not, the precomputed curve answers bit for bit what the
        interpolation over its points does, at and between the points."""
        curve = EfficiencyCurve(points)
        if at_points:
            loads = loads + [load for load, _eff in points]
        for load in loads:
            assert curve.efficiency(load) == interpolated(points, load)

    def test_unsorted_points_are_sorted(self):
        curve = EfficiencyCurve([(1.0, 0.9), (0.01, 0.5)])
        assert curve.efficiency(1.0) == pytest.approx(0.9)


class TestRegulator:
    def test_input_power_divides_by_efficiency(self):
        regulator = Regulator("vr", EfficiencyCurve.constant(0.8))
        assert regulator.input_power(0.8) == pytest.approx(1.0)

    def test_quiescent_at_zero_load(self):
        regulator = Regulator("vr", EfficiencyCurve.constant(0.8), quiescent_watts=0.05)
        assert regulator.input_power(0.0) == pytest.approx(0.05)

    def test_disabled_zero_load_draws_nothing(self):
        regulator = Regulator("vr", EfficiencyCurve.constant(0.8), quiescent_watts=0.05)
        regulator.disable()
        assert regulator.input_power(0.0) == 0.0

    def test_disabled_with_load_faults(self):
        regulator = Regulator("vr", EfficiencyCurve.constant(0.8))
        regulator.disable()
        with pytest.raises(PowerError):
            regulator.input_power(1.0)

    def test_disable_with_live_load_rejected(self):
        regulator = Regulator("vr", EfficiencyCurve.constant(0.8))
        with pytest.raises(PowerError):
            regulator.disable(load_watts=0.5)

    def test_enable_counts(self):
        regulator = Regulator("vr", EfficiencyCurve.constant(1.0))
        regulator.disable()
        regulator.enable()
        regulator.enable()  # no-op
        assert regulator.enable_count == 1

    def test_negative_load_rejected(self):
        regulator = Regulator("vr", EfficiencyCurve.constant(1.0))
        with pytest.raises(PowerError):
            regulator.input_power(-0.1)

    def test_negative_quiescent_rejected(self):
        with pytest.raises(PowerError):
            Regulator("vr", EfficiencyCurve.constant(1.0), quiescent_watts=-0.1)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_quiescent_rejected(self, bad):
        with pytest.raises(PowerError, match="finite and non-negative"):
            Regulator("vr", EfficiencyCurve.constant(1.0), quiescent_watts=bad)

    def test_drips_efficiency_of_the_paper(self):
        """Sec. 8 footnote: a 10 mW load costs 10/0.74 = 13.51 mW."""
        regulator = Regulator("vr", EfficiencyCurve.constant(0.74))
        assert regulator.input_power(0.010) * 1e3 == pytest.approx(13.51, abs=0.01)
