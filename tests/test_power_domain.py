"""Tests for components, power domains and rails."""

import pytest

from repro.errors import PowerError
from repro.power.domain import Component, PowerDomain, Rail
from repro.power.gates import BoardFETGate
from repro.power.regulator import EfficiencyCurve, Regulator


def make_rail(name="rail", efficiency=1.0, quiescent=0.0):
    regulator = Regulator(f"vr:{name}", EfficiencyCurve.constant(efficiency), quiescent)
    return Rail(name, 1.0, regulator)


class TestComponent:
    def test_power_terms(self):
        component = Component("c", leakage_watts=0.2, dynamic_watts=0.3)
        assert component.power_watts == pytest.approx(0.5)
        assert component.leakage_watts == pytest.approx(0.2)
        assert component.dynamic_watts == pytest.approx(0.3)

    def test_negative_power_rejected(self):
        with pytest.raises(PowerError):
            Component("c", leakage_watts=-1.0)
        component = Component("c")
        with pytest.raises(PowerError):
            component.set_dynamic(-0.1)
        with pytest.raises(PowerError):
            component.set_leakage(-0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "apply",
        [
            lambda c, w: Component("x", leakage_watts=w),
            lambda c, w: Component("x", dynamic_watts=w),
            lambda c, w: c.set_leakage(w),
            lambda c, w: c.set_dynamic(w),
            lambda c, w: c.set_power(w),
            lambda c, w: c.set_power(0.1, w),
        ],
        ids=["init-leakage", "init-dynamic", "set_leakage", "set_dynamic",
             "set_power-leakage", "set_power-dynamic"],
    )
    def test_non_finite_power_rejected(self, apply, bad):
        component = Component("c", leakage_watts=0.2, dynamic_watts=0.3)
        with pytest.raises(PowerError, match="finite and non-negative"):
            apply(component, bad)
        assert component.power_watts == pytest.approx(0.5)  # unchanged

    def test_double_attach_rejected(self):
        domain_a = PowerDomain("a")
        domain_b = PowerDomain("b")
        component = domain_a.new_component("c")
        with pytest.raises(PowerError):
            domain_b.add(component)

    def test_set_power_single_notification(self):
        domain = PowerDomain("d")
        changes = []
        domain.set_listener(lambda: changes.append(1))
        component = domain.new_component("c")
        changes.clear()
        component.set_power(0.1, 0.2)
        assert len(changes) == 1
        assert component.power_watts == pytest.approx(0.3)

    def test_powered_reflects_domain(self):
        domain = PowerDomain("d")
        component = domain.new_component("c", 0.1)
        assert component.powered
        domain.power_off()
        assert not component.powered


class TestPowerDomain:
    def test_nominal_load_sums_components(self):
        domain = PowerDomain("d")
        domain.new_component("a", 0.1)
        domain.new_component("b", 0.2)
        assert domain.nominal_load_watts() == pytest.approx(0.3)

    def test_power_off_drops_load(self):
        domain = PowerDomain("d")
        domain.new_component("a", 0.5)
        domain.power_off()
        assert domain.load_watts() == 0.0
        assert not domain.delivering

    def test_gated_domain_leaks_fraction(self):
        gate = BoardFETGate("fet")
        domain = PowerDomain("d", gate)
        domain.new_component("a", 1.0)
        domain.power_off()
        assert not gate.closed
        assert domain.load_watts() == pytest.approx(1.0 * gate.leakage_fraction)

    def test_gate_conduction_loss_when_on(self):
        gate = BoardFETGate("fet")
        domain = PowerDomain("d", gate)
        domain.new_component("a", 1.0)
        assert domain.load_watts() == pytest.approx(1.0 * (1 + gate.conduction_loss_fraction))

    def test_power_on_restores(self):
        domain = PowerDomain("d")
        domain.new_component("a", 0.5)
        domain.power_off()
        domain.power_on()
        assert domain.load_watts() == pytest.approx(0.5)
        assert domain.transition_count == 2

    def test_listener_fires_on_changes(self):
        domain = PowerDomain("d")
        calls = []
        domain.set_listener(lambda: calls.append(1))
        component = domain.new_component("a", 0.1)
        component.set_leakage(0.2)
        domain.power_off()
        assert len(calls) == 3


class TestRail:
    def test_input_power_with_efficiency(self):
        rail = make_rail(efficiency=0.5)
        domain = rail.new_domain("d")
        domain.new_component("a", 1.0)
        assert rail.input_power() == pytest.approx(2.0)

    def test_quiescent_added(self):
        rail = make_rail(quiescent=0.1)
        domain = rail.new_domain("d")
        domain.new_component("a", 1.0)
        assert rail.input_power() == pytest.approx(1.1)

    def test_turn_off_requires_unloaded(self):
        rail = make_rail()
        domain = rail.new_domain("d")
        domain.new_component("a", 1.0)
        with pytest.raises(PowerError):
            rail.turn_off()
        domain.power_off()
        rail.turn_off()
        assert rail.input_power() == 0.0

    def test_disabled_rail_with_load_faults(self):
        rail = make_rail()
        domain = rail.new_domain("d")
        domain.new_component("a", 0.0)
        rail.turn_off()
        # loading the rail now violates the sequencing contract
        with pytest.raises(PowerError):
            domain.components[0].set_leakage(1.0)
            rail.input_power()

    def test_breakdown(self):
        rail = make_rail()
        d1 = rail.new_domain("one")
        d2 = rail.new_domain("two")
        d1.new_component("a", 0.1)
        d2.new_component("b", 0.2)
        assert rail.breakdown() == pytest.approx({"one": 0.1, "two": 0.2})

    def test_invalid_voltage_rejected(self):
        regulator = Regulator("vr", EfficiencyCurve.constant(1.0))
        with pytest.raises(PowerError):
            Rail("bad", 0.0, regulator)
