"""Tests for the SRAM device model."""

import pytest

from repro.errors import MemoryFault
from repro.memory.sram import SRAMDevice, SRAMState
from repro.power.domain import PowerDomain


def make_sram(capacity=1024, leak_per_byte=1e-8, domain=None):
    component = None
    if domain is not None:
        component = domain.new_component("sram")
    return SRAMDevice("sram", capacity, leak_per_byte, power_component=component)


class TestStates:
    def test_operational_allows_access(self):
        sram = make_sram()
        sram.write(0, b"abc")
        assert sram.read(0, 3) == b"abc"

    def test_retention_blocks_access_but_keeps_data(self):
        sram = make_sram()
        sram.write(0, b"abc")
        sram.enter_retention()
        with pytest.raises(MemoryFault):
            sram.read(0, 3)
        sram.exit_retention()
        assert sram.read(0, 3) == b"abc"

    def test_power_off_loses_data(self):
        sram = make_sram()
        sram.write(0, b"abc")
        sram.power_off()
        sram.power_on()
        assert sram.read(0, 3) == b"\x00\x00\x00"

    def test_retain_powered_off_array_rejected(self):
        sram = make_sram()
        sram.power_off()
        with pytest.raises(MemoryFault):
            sram.enter_retention()
        with pytest.raises(MemoryFault):
            sram.exit_retention()

    def test_state_transitions(self):
        sram = make_sram()
        assert sram.state is SRAMState.OPERATIONAL
        sram.enter_retention()
        assert sram.state is SRAMState.RETENTION
        sram.power_off()
        assert sram.state is SRAMState.OFF


class TestPower:
    def test_retention_power_scales_with_capacity(self):
        small = make_sram(capacity=1024)
        large = make_sram(capacity=4096)
        assert large.retention_power_watts() == pytest.approx(
            4 * small.retention_power_watts()
        )

    def test_power_component_tracks_state(self):
        domain = PowerDomain("d")
        sram = make_sram(domain=domain)
        component = domain.components[0]
        operational = component.power_watts
        sram.enter_retention()
        retention = component.power_watts
        sram.power_off()
        off = component.power_watts
        assert operational > retention > off == 0.0

    def test_operational_leakage_factor(self):
        sram = make_sram()
        domain = PowerDomain("d")
        sram2 = make_sram(domain=domain)
        component = domain.components[0]
        assert component.power_watts == pytest.approx(
            sram2.retention_power_watts() * sram2.operational_leakage_factor
        )

    def test_chipset_process_leaks_5x_less(self):
        """Sec. 3 Observation 3: processor SRAM leaks ~5x chipset SRAM."""
        processor_leak = 1e-8
        chipset_leak = SRAMDevice.chipset_equivalent_leakage(processor_leak)
        assert processor_leak / chipset_leak == pytest.approx(5.0)

    def test_negative_leakage_rejected(self):
        with pytest.raises(MemoryFault):
            make_sram(leak_per_byte=-1.0)
