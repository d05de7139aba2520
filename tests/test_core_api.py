"""Tests for the high-level API: ODRIPSController and measurements."""

import pytest

from repro.analysis.breakeven import find_break_even, residency_sweep
from repro.core.odrips import ODRIPSController, StandbyMeasurement
from repro.core.techniques import TechniqueSet
from repro.errors import ConfigError

from _platform import small_context_config


class TestController:
    def test_build_platform_uses_technique_set(self):
        controller = ODRIPSController(TechniqueSet.odrips(), config=small_context_config())
        platform = controller.build_platform()
        assert platform.techniques.is_full_odrips
        assert platform.mee is not None

    def test_build_platform_cache_geometry_kwargs(self):
        controller = ODRIPSController(
            TechniqueSet.ctx_sgx_dram_only(), config=small_context_config()
        )
        platform = controller.build_platform(mee_cache_sets=4, mee_cache_ways=2)
        assert platform.mee.cache.capacity == 8

    def test_default_is_baseline(self):
        assert ODRIPSController().techniques.is_baseline

    def test_measure_returns_labelled_measurement(self):
        controller = ODRIPSController(config=small_context_config())
        measurement = controller.measure(cycles=1, idle_interval_s=0.5,
                                         maintenance_s=0.02)
        assert measurement.label == "Baseline (DRIPS)"
        assert measurement.average_power_w > 0
        assert measurement.entry_latency_us > 0

    def test_measure_with_levers(self):
        controller = ODRIPSController(
            TechniqueSet.odrips(), config=small_context_config()
        )
        fast = controller.measure(cycles=1, idle_interval_s=0.5, maintenance_s=0.05,
                                  core_freq_ghz=2.0)
        slow = controller.measure(cycles=1, idle_interval_s=0.5, maintenance_s=0.05,
                                  core_freq_ghz=0.8)
        assert fast.average_power_w != slow.average_power_w

    def test_measure_raw_periodic(self):
        controller = ODRIPSController(config=small_context_config())
        result = controller.measure_raw(
            cycles=2, idle_interval_s=0.03, maintenance_s=0.02, period_s=0.05
        )
        assert result.cycles == 2

    @pytest.mark.parametrize("method", ["measure", "measure_raw"])
    @pytest.mark.parametrize(
        "argument",
        [
            {"core_freq_ghz": -1.0},
            {"dram_rate_hz": 0.0},
            {"core_freq_ghz": float("nan")},
            {"dram_rate_hz": float("inf")},
        ],
        ids=["core-negative", "dram-zero", "core-nan", "dram-inf"],
    )
    def test_bad_sweep_frequency_rejected_before_build(self, monkeypatch, method, argument):
        controller = ODRIPSController(TechniqueSet.odrips(), config=small_context_config())

        def no_build(**_kwargs):
            raise AssertionError("platform built for a bad frequency")

        monkeypatch.setattr(controller, "build_platform", no_build)
        with pytest.raises(ConfigError):
            getattr(controller, method)(cycles=1, **argument)


class TestStandbyMeasurement:
    def test_saving_vs(self):
        base = StandbyMeasurement("base", 0.100, 0.06, 0.99, 3.0, 200, 300, {})
        better = StandbyMeasurement("x", 0.078, 0.05, 0.99, 3.0, 200, 300, {})
        assert better.saving_vs(base) == pytest.approx(0.22)

    def test_from_result_averages_latencies(self):
        from repro.measure.residency import ResidencyReport
        from repro.workloads.standby import StandbyResult

        report = ResidencyReport(window_ps=10**12, dwell_ps={"drips": 10**12},
                                 energy_j={"drips": 0.06})
        result = StandbyResult(
            cycles=1, window_start_ps=0, window_end_ps=10**12,
            average_power_w=0.06, residency=report,
            entry_latencies_ps=[100_000_000, 300_000_000],
            exit_latencies_ps=[200_000_000],
        )
        measurement = StandbyMeasurement.from_result("x", result)
        assert measurement.entry_latency_us == pytest.approx(200.0)
        assert measurement.exit_latency_us == pytest.approx(200.0)


class TestBreakEvenAPI:
    def test_baseline_break_even_rejected(self):
        with pytest.raises(ConfigError):
            find_break_even(TechniqueSet.baseline())

    def test_bad_idle_points_rejected(self):
        with pytest.raises(ConfigError):
            find_break_even(
                TechniqueSet.odrips(), idle_points_s=(0.06, 0.02)
            )

    def test_residency_sweep_returns_triples(self):
        points = residency_sweep(
            TechniqueSet.wake_up_off_only(), [0.01, 0.05], cycles=2
        )
        assert len(points) == 2
        for idle_s, base_w, tech_w in points:
            assert base_w > 0 and tech_w > 0
        # at 50 ms the technique clearly wins (break-even is ~6.6 ms)
        assert points[1][2] < points[1][1]
