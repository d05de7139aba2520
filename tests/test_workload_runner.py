"""Tests for the connected-standby workload runner."""

import pytest

from repro.config import StandbyWorkloadConfig
from repro.core.odrips import ODRIPSController
from repro.core.techniques import TechniqueSet
from repro.errors import WorkloadError
from repro.workloads import standby
from repro.workloads.standby import ConnectedStandbyRunner

from _platform import build_platform


def make_runner(techniques=None, **kwargs):
    platform = build_platform(
        techniques if techniques is not None else TechniqueSet.baseline(),
        small_context=True,
    )
    return ConnectedStandbyRunner(platform, **kwargs)


class TestBasicRuns:
    def test_short_run_produces_result(self):
        runner = make_runner(idle_interval_s=0.5, maintenance_s=0.02)
        result = runner.run(cycles=2)
        assert result.cycles == 2
        assert result.average_power_w > 0
        assert result.window_s == pytest.approx(2 * (0.5 + 0.02), rel=0.1)

    def test_residencies_sum_to_one(self):
        runner = make_runner(idle_interval_s=0.5, maintenance_s=0.02)
        result = runner.run(cycles=2)
        total = sum(
            result.residency.residency(state) for state in result.residency.dwell_ps
        )
        assert total == pytest.approx(1.0)

    def test_paper_residency_with_default_workload(self):
        """Sec. 7: 99.5% DRIPS residency with 30 s idle / ~145 ms bursts."""
        runner = make_runner()
        result = runner.run(cycles=1)
        assert result.drips_residency == pytest.approx(0.995, abs=0.002)

    def test_average_between_drips_and_active(self):
        runner = make_runner(idle_interval_s=1.0, maintenance_s=0.05)
        result = runner.run(cycles=1)
        assert result.drips_power_w < result.average_power_w < result.active_power_w

    def test_breakdown_captured(self):
        runner = make_runner(idle_interval_s=2.5, maintenance_s=0.02)
        result = runner.run(cycles=1)
        assert result.drips_breakdown_w
        assert any("sr_sram" in name for name in result.drips_breakdown_w)

    def test_invalid_cycles_rejected(self):
        runner = make_runner(idle_interval_s=0.5)
        with pytest.raises(WorkloadError):
            runner.run(cycles=0)

    def test_invalid_idle_rejected(self):
        with pytest.raises(WorkloadError):
            make_runner(idle_interval_s=0.0)


class TestCycleCountBoundary:
    """Cycle counts the runner must refuse before it simulates anything."""

    def test_fractional_cycles_rejected(self):
        # used to raise TypeError from a wake-log index
        with pytest.raises(WorkloadError, match="cycles must be an int"):
            make_runner(idle_interval_s=0.5).run(cycles=2.5)

    def test_fractional_warmup_rejected(self):
        # used to raise TypeError from a wake-log index
        with pytest.raises(WorkloadError, match="warmup_cycles must be an int"):
            make_runner(idle_interval_s=0.5).run(cycles=1, warmup_cycles=1.5)

    def test_bool_cycles_rejected(self):
        # used to run one cycle
        with pytest.raises(WorkloadError, match="cycles must be an int"):
            make_runner(idle_interval_s=0.5).run(cycles=True)

    def test_negative_warmup_rejected(self):
        # used to raise MeasurementError from the residency report
        with pytest.raises(WorkloadError, match="warmup cycles must be non-negative"):
            make_runner(idle_interval_s=0.5).run(cycles=1, warmup_cycles=-1)

    def test_measure_rejects_fractional_cycles(self):
        with pytest.raises(WorkloadError, match="cycles must be an int"):
            ODRIPSController().measure(cycles=2.5)


#: Durations the runner must refuse at its boundary, each of which used
#: to fail deep inside a conversion or a flow instead.
BAD_DURATIONS = [
    {"idle_interval_s": float("nan")},
    {"idle_interval_s": float("inf")},
    {"idle_interval_s": -1.0},
    {"period_s": float("nan")},
    {"period_s": float("inf")},
    {"period_s": 0.0},
    {"maintenance_s": -0.5},
    {"maintenance_s": float("nan")},
    {"maintenance_s": float("inf")},
]


class TestDurationBoundary:
    @pytest.mark.parametrize("durations", BAD_DURATIONS, ids=repr)
    def test_runner_rejects(self, durations):
        with pytest.raises(WorkloadError):
            make_runner(**durations)

    @pytest.mark.parametrize("durations", BAD_DURATIONS, ids=repr)
    def test_measure_rejects(self, durations):
        with pytest.raises(WorkloadError):
            ODRIPSController().measure(cycles=1, **durations)

    def test_zero_maintenance_runs(self):
        result = make_runner(idle_interval_s=0.5, maintenance_s=0.0).run(cycles=1)
        assert result.average_power_w > 0


class TestReportNames:
    """The runner calls both report functions by their module-global
    names, so rebinding a name captures the report the run returns (the
    e2e benchmark's Equation-1 check and layer tracer rely on it)."""

    @pytest.mark.parametrize(
        "macro, called", [(False, "residency_report"), (True, "macro_residency_report")]
    )
    def test_rebinding_captures_the_returned_report(self, monkeypatch, macro, called):
        captured = {}
        for name in ("residency_report", "macro_residency_report"):

            def capture(*args, _name=name, _original=getattr(standby, name), **kwargs):
                report = _original(*args, **kwargs)
                captured.setdefault(_name, []).append(report)
                return report

            monkeypatch.setattr(standby, name, capture)
        runner = make_runner(idle_interval_s=0.5, maintenance_s=0.02, macro=macro)
        result = runner.run(cycles=8)
        assert list(captured) == [called]
        assert len(captured[called]) == 1
        assert captured[called][0] is result.residency
        if macro:
            assert result.macro["cycles_compiled"] > 0


class TestScheduling:
    def test_periodic_mode_fixes_wake_grid(self):
        period = 0.1
        runner = make_runner(idle_interval_s=0.05, maintenance_s=0.02, period_s=period)
        result = runner.run(cycles=3)
        wakes = [event.time_ps for event in runner.platform.wake_log]
        gaps = [b - a for a, b in zip(wakes, wakes[1:])]
        for gap in gaps:
            assert gap == pytest.approx(period * 1e12, rel=1e-6)

    def test_maintenance_randomization_is_seeded(self):
        workload = StandbyWorkloadConfig(seed=7)
        runner_a = make_runner(workload=workload, idle_interval_s=0.3,
                               randomize_maintenance=True)
        runner_b = make_runner(workload=workload, idle_interval_s=0.3,
                               randomize_maintenance=True)
        result_a = runner_a.run(cycles=2)
        result_b = runner_b.run(cycles=2)
        assert result_a.average_power_w == pytest.approx(result_b.average_power_w)

    def test_higher_core_frequency_shortens_active(self):
        slow = make_runner(idle_interval_s=0.5, maintenance_s=0.1)
        fast = make_runner(idle_interval_s=0.5, maintenance_s=0.1)
        fast.platform.set_core_frequency(1.6)
        slow_result = slow.run(cycles=1)
        fast_result = fast.run(cycles=1)
        assert (
            fast_result.residency.dwell_ps["active"]
            < slow_result.residency.dwell_ps["active"]
        )


class TestExternalWakes:
    def test_injected_wakes_recorded(self):
        workload = StandbyWorkloadConfig(seed=3, external_wake_rate_per_hour=100000.0)
        runner = make_runner(workload=workload, idle_interval_s=2.0,
                             maintenance_s=0.02, external_wakes=True)
        result = runner.run(cycles=2)
        assert any("network" in event for event in result.wake_events)
