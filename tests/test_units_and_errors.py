"""Tests for the unit helpers and the error hierarchy."""

import pytest

from repro import errors, units


class TestTimeConversions:
    def test_seconds_roundtrip(self):
        assert units.ps_to_seconds(units.seconds_to_ps(1.5)) == pytest.approx(1.5)

    def test_scale_constants(self):
        assert units.SECOND == 10**12
        assert units.MS * 1000 == units.SECOND
        assert units.US * 1000 == units.MS
        assert units.NS * 1000 == units.US

    def test_named_converters(self):
        assert units.ms_to_ps(1.0) == units.MS
        assert units.us_to_ps(2.0) == 2 * units.US
        assert units.ns_to_ps(3.0) == 3 * units.NS

    def test_period_of_24mhz(self):
        assert units.period_ps(24e6) == round(1e12 / 24e6)

    def test_period_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            units.period_ps(0)
        with pytest.raises(ValueError):
            units.period_ps(-1.0)


class TestPowerConversions:
    def test_milliwatts(self):
        assert units.milliwatts(60.0) == pytest.approx(0.060)
        assert units.watts_to_milliwatts(0.060) == pytest.approx(60.0)

    def test_microwatts(self):
        assert units.microwatts(500.0) == pytest.approx(0.0005)

    def test_energy(self):
        assert units.energy_joules(2.0, units.SECOND) == pytest.approx(2.0)
        assert units.energy_joules(1.0, units.MS) == pytest.approx(1e-3)


class TestPpm:
    def test_parts_per_million(self):
        assert units.parts_per_million(1000.0, 100.0) == pytest.approx(1000.1)
        assert units.parts_per_million(1000.0, -100.0) == pytest.approx(999.9)

    def test_ratio_ppb(self):
        assert units.ratio_ppb(1.000000001, 1.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            units.ratio_ppb(1.0, 0.0)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error_class",
        [
            errors.SimulationError,
            errors.PowerError,
            errors.ClockError,
            errors.TimerError,
            errors.MemoryFault,
            errors.SecurityError,
            errors.FlowError,
            errors.IOError_,
            errors.ConfigError,
            errors.WorkloadError,
            errors.MeasurementError,
        ],
    )
    def test_all_derive_from_repro_error(self, error_class):
        assert issubclass(error_class, errors.ReproError)
        with pytest.raises(errors.ReproError):
            raise error_class("boom")

    def test_io_error_does_not_shadow_builtin(self):
        assert errors.IOError_ is not IOError
        assert not issubclass(errors.IOError_, OSError)


class TestConfigValidation:
    def test_invalid_efficiency_rejected(self):
        import dataclasses

        from repro.config import skylake_config
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            dataclasses.replace(skylake_config(), drips_efficiency=0.0)
        with pytest.raises(ConfigError):
            dataclasses.replace(skylake_config(), active_efficiency=1.5)

    def test_invalid_frequency_range_rejected(self):
        import dataclasses

        from repro.config import skylake_config
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            dataclasses.replace(skylake_config(), min_core_ghz=2.0, max_core_ghz=1.0)

    def test_voltage_model_rejects_nonpositive_frequency(self):
        from repro.config import ActivePowerModel
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            ActivePowerModel().voltage(0.0)

    @pytest.mark.parametrize("field, value", [
        ("system_agent_bytes", -1),
        ("system_agent_bytes", 0),
        ("cores_bytes", 4096.0),
        ("cores_bytes", "4096"),
        ("graphics_bytes", 1.5),
        ("graphics_bytes", True),
        ("boot_bytes", -1),
        ("boot_bytes", 0.5),
        ("boot_bytes", False),
    ])
    def test_context_inventory_rejects_bad_sizes(self, field, value):
        """Bad sizes fail at the boundary, not as a MemoryFault or a bare
        TypeError deep inside the first DRIPS entry."""
        from repro.config import ContextInventory
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match=field):
            ContextInventory(**{field: value})

    def test_context_inventory_allows_empty_boot_blob(self):
        from repro.config import ContextInventory

        assert ContextInventory(boot_bytes=0).boot_bytes == 0

    def test_context_inventory_totals(self):
        from repro.config import ContextInventory

        inventory = ContextInventory()
        assert inventory.total_bytes == 200 * 1024
        assert inventory.offloadable_bytes == inventory.total_bytes
