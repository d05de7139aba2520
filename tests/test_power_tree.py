"""Tests for the power tree: aggregation, metering, attribution."""

import pytest

from repro.measure.residency import integrate_joules
from repro.power.gates import BoardFETGate, EmbeddedPowerGate
from repro.units import SECOND


class TestAggregation:
    def test_platform_power_sums_rails(self, tree):
        rail_a = tree.new_rail("a", 1.0)
        rail_b = tree.new_rail("b", 1.0)
        rail_a.new_domain("da").new_component("ca", 0.1)
        rail_b.new_domain("db").new_component("cb", 0.2)
        assert tree.platform_power() == pytest.approx(0.3)

    def test_meter_follows_changes(self, tree, kernel, trace):
        """The trace's platform channel is the energy record."""
        rail = tree.new_rail("a", 1.0)
        component = rail.new_domain("d").new_component("c", 1.0)
        kernel.advance_to(SECOND)
        component.set_leakage(3.0)
        assert trace.last("platform").value == pytest.approx(3.0)
        energy = integrate_joules(trace, "platform", 0, 2 * SECOND)
        assert energy == pytest.approx(1.0 + 3.0)

    def test_trace_records_platform_power(self, tree, trace):
        rail = tree.new_rail("a", 1.0)
        rail.new_domain("d").new_component("c", 0.5)
        assert trace.last("platform").value == pytest.approx(0.5)

    def test_rail_lookup(self, tree):
        tree.new_rail("aon", 1.0)
        assert tree.rail("aon").name == "aon"
        with pytest.raises(KeyError):
            tree.rail("missing")


class TestSuspension:
    def test_batched_updates_collapse(self, tree, kernel, trace):
        rail = tree.new_rail("a", 1.0)
        domain = rail.new_domain("d")
        kernel.advance_to(100)
        samples_before = len(trace.samples("platform"))
        tree.suspend_updates()
        domain.new_component("c1", 0.1)
        domain.new_component("c2", 0.2)
        tree.resume_updates()
        new_samples = len(trace.samples("platform")) - samples_before
        assert new_samples == 1
        assert tree.platform_power() == pytest.approx(0.3)

    def test_nested_suspension(self, tree):
        rail = tree.new_rail("a", 1.0)
        domain = rail.new_domain("d")
        tree.suspend_updates()
        tree.suspend_updates()
        domain.new_component("c", 0.1)
        tree.resume_updates()
        tree.resume_updates()
        assert tree.platform_power() == pytest.approx(0.1)

    def test_resume_without_suspend_is_safe(self, tree):
        tree.resume_updates()

    def test_batch_without_change_records_nothing(self, tree, kernel, trace):
        tree.new_rail("a", 1.0).new_domain("d").new_component("c", 0.1)
        kernel.advance_to(100)
        before = len(trace)
        with tree.batch():
            with tree.batch():
                pass
        assert len(trace) == before
        assert trace.last("platform").time_ps == 0

    def test_nested_batches_record_once_at_outer_exit(self, tree, kernel, trace):
        rail = tree.new_rail("a", 1.0)
        component = rail.new_domain("d").new_component("c", 0.1)
        kernel.advance_to(100)
        before = len(trace)
        with tree.batch():
            with tree.batch():
                component.set_leakage(0.3)
            assert len(trace) == before  # the inner exit only unnests
            component.set_dynamic(0.2)
            assert trace.last("platform").value == pytest.approx(0.1)
        assert [(s.time_ps, s.channel) for s in trace.samples()[before:]] == [
            (100, "platform"),
            (100, "rail:a"),
        ]
        assert trace.last("platform").value == pytest.approx(0.5)

    def test_change_reverted_inside_batch_still_records(self, tree, kernel, trace):
        """A change marks the instant even when the level ends unchanged."""
        component = tree.new_rail("a", 1.0).new_domain("d").new_component("c", 0.1)
        kernel.advance_to(100)
        with tree.batch():
            component.set_leakage(0.4)
            component.set_leakage(0.1)
        assert trace.last("platform").time_ps == 100
        assert trace.last("platform").value == pytest.approx(0.1)

    def test_batch_resumes_when_its_body_raises(self, tree, kernel, trace):
        component = tree.new_rail("a", 1.0).new_domain("d").new_component("c", 0.1)
        kernel.advance_to(100)
        with pytest.raises(RuntimeError):
            with tree.batch():
                component.set_leakage(0.2)
                raise RuntimeError("boom")
        assert trace.last("platform").time_ps == 100  # the change landed
        kernel.advance_to(200)
        component.set_leakage(0.3)
        assert trace.last("platform").time_ps == 200  # and the tree is live

    def test_exception_in_batched_flow_segment_propagates(self):
        from repro.sim.process import Process
        from repro.system.flows import FlowController
        from repro.system.skylake import SkylakePlatform

        platform = SkylakePlatform()
        flows = FlowController(platform)
        component = platform.flow_component

        def segment():
            component.set_power(0.5)
            yield 10
            component.set_power(0.7)
            raise RuntimeError("flow step failed")

        Process(platform.kernel, flows._batched(segment()), name="failing")
        with pytest.raises(RuntimeError, match="flow step failed"):
            platform.kernel.run()
        # the failing segment's change was recorded at its own instant ...
        last = platform.trace.last("platform")
        assert last.time_ps == 10
        assert last.value == platform.tree.platform_power()
        # ... and the tree is unsuspended: the next change records at once
        platform.kernel.advance_to(20)
        component.set_power(0.0)
        assert platform.trace.last("platform").time_ps == 20


class TestAttribution:
    def test_components_attributed_directly_at_unit_efficiency(self, tree):
        rail = tree.new_rail("a", 1.0)
        domain = rail.new_domain("d")
        domain.new_component("x", 0.1)
        domain.new_component("y", 0.3)
        breakdown = tree.attributed_breakdown()
        assert breakdown["x"] == pytest.approx(0.1)
        assert breakdown["y"] == pytest.approx(0.3)

    def test_delivery_tax_distributed_proportionally(self, tree):
        from repro.power.regulator import EfficiencyCurve

        rail = tree.new_rail("a", 1.0, curve=EfficiencyCurve.constant(0.5))
        domain = rail.new_domain("d")
        domain.new_component("x", 0.1)
        domain.new_component("y", 0.3)
        breakdown = tree.attributed_breakdown()
        assert breakdown["x"] == pytest.approx(0.2)
        assert breakdown["y"] == pytest.approx(0.6)

    def test_gated_domain_booked_as_gate_leakage(self, tree):
        rail = tree.new_rail("a", 1.0)
        gate = BoardFETGate("fet")
        domain = rail.new_domain("d", gate=gate)
        domain.new_component("x", 1.0)
        domain.power_off()
        breakdown = tree.attributed_breakdown()
        assert "x" not in breakdown
        assert breakdown["gate:d"] == pytest.approx(gate.leakage_fraction)

    def test_fractions_sum_to_one(self, tree):
        rail = tree.new_rail("a", 1.0)
        domain = rail.new_domain("d")
        domain.new_component("x", 0.2)
        domain.new_component("y", 0.6)
        fractions = tree.breakdown_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert fractions["y"] == pytest.approx(0.75)

    def test_quiescent_only_rail_booked_as_vr(self, tree):
        rail = tree.new_rail("a", 1.0, quiescent_watts=0.05)
        rail.new_domain("d")  # empty
        breakdown = tree.attributed_breakdown()
        assert breakdown["vr:a"] == pytest.approx(0.05)


class TestNotification:
    def test_gate_swap_reaches_platform_power(self, tree, trace):
        """Fitting a new gate is a power-state change like any other."""
        domain = tree.new_rail("a", 1.0).new_domain("d", gate=EmbeddedPowerGate("epg"))
        domain.new_component("c", 1.0)
        domain.power_off()
        assert tree.platform_power() == 1.0 * EmbeddedPowerGate.leakage_fraction
        domain.gate = BoardFETGate("fet", closed=False)
        assert tree.platform_power() == 1.0 * BoardFETGate.leakage_fraction
        assert trace.last("platform").value == 1.0 * BoardFETGate.leakage_fraction
