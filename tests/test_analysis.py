"""Tests for the analysis package: Equation 1, scaling, sweeps, tables."""

import importlib

import pytest

from repro.analysis.average_power import AveragePowerModel, StatePoint
from repro.analysis.report import format_table
from repro.analysis.scaling import scale_power, scaling_factor
from repro.analysis.sweep import relative_to_first, sweep
from repro.config import PROCESS_14NM, PROCESS_22NM, skylake_config
from repro.errors import AnalysisError, ConfigError
from repro.obs.hook import observe
from repro.obs.runlog import RunRecorder

#: The module, not the ``sweep`` function ``repro.analysis`` re-exports.
sweep_module = importlib.import_module("repro.analysis.sweep")


def _square(value: int) -> float:
    """Module-level (picklable) experiment for the parallel sweep test."""
    return float(value * value)


def _times_ten(value: int) -> float:
    """Module-level experiment: a worker pool cannot pickle a lambda."""
    return value * 10.0


class TestEquation1:
    def test_weighted_sum(self):
        model = AveragePowerModel(
            [
                StatePoint("active", 3.0, 0.15),
                StatePoint("drips", 0.060, 29.85),
            ]
        )
        expected = (3.0 * 0.15 + 0.060 * 29.85) / 30.0
        assert model.average_power() == pytest.approx(expected)

    def test_residency(self):
        model = AveragePowerModel(
            [StatePoint("a", 1.0, 1.0), StatePoint("b", 2.0, 3.0)]
        )
        assert model.residency("b") == pytest.approx(0.75)

    def test_terms_sum_to_average(self):
        model = AveragePowerModel(
            [
                StatePoint("active", 3.0, 0.145),
                StatePoint("entry", 0.9, 0.0002),
                StatePoint("drips", 0.060, 30.0),
                StatePoint("exit", 1.2, 0.0003),
            ]
        )
        assert sum(model.terms().values()) == pytest.approx(model.average_power())

    def test_connected_standby_factory_matches_paper(self):
        """The analytical model reproduces the ~74-75 mW baseline average."""
        model = AveragePowerModel.for_connected_standby()
        assert model.average_power() * 1e3 == pytest.approx(74.5, abs=1.5)
        assert model.residency("drips") > 0.99

    def test_analytical_model_matches_simulation(self):
        """Equation 1 cross-check: closed form vs the simulator."""
        from repro.core import ODRIPSController, TechniqueSet

        simulated = ODRIPSController(TechniqueSet.baseline()).measure(cycles=1)
        analytical = AveragePowerModel.for_connected_standby()
        assert simulated.average_power_w == pytest.approx(
            analytical.average_power(), rel=0.02
        )

    def test_empty_model_rejected(self):
        with pytest.raises(ConfigError):
            AveragePowerModel([])

    def test_negative_state_rejected(self):
        with pytest.raises(ConfigError):
            StatePoint("x", -1.0, 1.0)


class TestScaling:
    def test_leakage_scaling_reduces_power(self):
        """22 nm -> 14 nm shrinks leakage (the Sec. 7 direction)."""
        assert scaling_factor(PROCESS_22NM, PROCESS_14NM, "leakage") < 1.0

    def test_dynamic_scaling_reduces_power(self):
        assert scaling_factor(PROCESS_22NM, PROCESS_14NM, "dynamic") < 1.0

    def test_round_trip_is_identity(self):
        forward = scaling_factor(PROCESS_22NM, PROCESS_14NM, "leakage")
        backward = scaling_factor(PROCESS_14NM, PROCESS_22NM, "leakage")
        assert forward * backward == pytest.approx(1.0)

    def test_scale_power(self):
        scaled = scale_power(1.0, PROCESS_22NM, PROCESS_14NM, "dynamic")
        assert scaled == pytest.approx(0.72 * 0.93**2)

    def test_haswell_config_is_scaled_back_skylake(self):
        from repro.config import haswell_config

        haswell = haswell_config()
        skylake = skylake_config()
        ratio = haswell.budget.sr_sram_w / skylake.budget.sr_sram_w
        assert ratio == pytest.approx(1 / PROCESS_14NM.leakage_scale)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            scaling_factor(PROCESS_22NM, PROCESS_14NM, "thermal")


class TestTemperature:
    def test_reference_temperature_is_identity(self):
        from repro.analysis.scaling import (
            drips_power_at_temperature,
            temperature_leakage_factor,
        )

        budget = skylake_config().budget
        assert temperature_leakage_factor(30.0) == pytest.approx(1.0)
        assert drips_power_at_temperature(budget, 30.0) == pytest.approx(
            budget.platform_total_w()
        )

    def test_leakage_doubles_per_doubling_interval(self):
        from repro.analysis.scaling import temperature_leakage_factor

        assert temperature_leakage_factor(30.0 + 22.0) == pytest.approx(2.0)
        assert temperature_leakage_factor(30.0 - 22.0) == pytest.approx(0.5)

    def test_hotter_platform_draws_more(self):
        from repro.analysis.scaling import drips_power_at_temperature

        budget = skylake_config().budget
        cold = drips_power_at_temperature(budget, 10.0)
        nominal = drips_power_at_temperature(budget, 30.0)
        hot = drips_power_at_temperature(budget, 50.0)
        assert cold < nominal < hot

    def test_crystals_are_temperature_flat(self):
        """Only leakage-classified fractions scale; the crystals are
        dynamic and must not contribute to the temperature swing."""
        from repro.analysis.scaling import LEAKAGE_FRACTION_OF_SLICE

        assert LEAKAGE_FRACTION_OF_SLICE["fast_xtal_w"] == 0.0
        assert LEAKAGE_FRACTION_OF_SLICE["slow_xtal_w"] == 0.0
        assert LEAKAGE_FRACTION_OF_SLICE["sr_sram_w"] == 1.0


class TestSweepHelpers:
    def test_sweep_collects(self):
        points = sweep([1, 2, 3], _times_ten)
        assert points == [(1, 10.0), (2, 20.0), (3, 30.0)]

    def test_relative_to_first(self):
        deltas = relative_to_first([(1, 100.0), (2, 99.0), (3, 102.0)])
        assert deltas[0][1] == pytest.approx(0.0)
        assert deltas[1][1] == pytest.approx(-0.01)
        assert deltas[2][1] == pytest.approx(+0.02)

    def test_relative_with_zero_reference_rejected(self):
        with pytest.raises(AnalysisError):
            relative_to_first([(1, 0.0), (2, 5.0)])

    def test_relative_with_near_zero_reference_rejected(self):
        """Float-equality-free zero check: denormal references also raise."""
        with pytest.raises(AnalysisError):
            relative_to_first([(1, 1e-15), (2, 5.0)])

    def test_relative_empty_points(self):
        assert relative_to_first([]) == []

    def test_parallel_sweep_matches_serial(self, monkeypatch):
        """A pool sweep returns the same ordered pairs as an in-process one."""
        recorder = RunRecorder()
        with observe(recorder=recorder):
            monkeypatch.setattr(sweep_module, "_usable_cpus", lambda: 2)
            parallel = sweep([1, 2, 3], _square)
            monkeypatch.setattr(sweep_module, "_usable_cpus", lambda: 1)
            serial = sweep([1, 2, 3], _square)
        assert parallel == serial == [(1, 1.0), (2, 4.0), (3, 9.0)]
        workers = [entry["workers"] for entry in recorder._pending_sweeps]
        assert workers == [2, None]

    def test_pinned_process_sweeps_in_process(self, monkeypatch):
        """The pool is sized from the affinity mask, not the host's CPUs:
        a process pinned to one core of a many-core host never forks."""
        if not hasattr(sweep_module.os, "sched_getaffinity"):
            pytest.skip("no affinity mask on this platform")
        monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(sweep_module.os, "sched_getaffinity", lambda pid: {0})
        assert sweep_module._usable_cpus() == 1
        recorder = RunRecorder()
        with observe(recorder=recorder):
            assert sweep([1, 2, 3], _square) == [(1, 1.0), (2, 4.0), (3, 9.0)]
        (fanout,) = recorder._pending_sweeps
        assert fanout["workers"] is None


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"],
            [["alpha", 1.5], ["b", 20.25]],
            title="Demo",
        )
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[2]
        assert "alpha" in lines[4]
        assert all(len(line) <= max(len(l) for l in lines) for line in lines)

    def test_small_floats_keep_precision(self):
        text = format_table(["v"], [[0.00042]])
        assert "0.00042" in text
