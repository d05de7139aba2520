"""Tests for the non-volatile memory devices (PCM, eMRAM)."""

import pytest

from repro.errors import MemoryFault
from repro.memory.nvm import EMRAMDevice, NVMDevice, PCMDevice
from repro.power.domain import PowerDomain
from repro.units import GIB


class TestNonVolatility:
    def test_data_survives_power_cycle(self):
        pcm = PCMDevice(capacity_bytes=1 << 20)
        pcm.write(100, b"persist")
        pcm.power_off()
        pcm.power_on()
        data, _ = pcm.read(100, 7)
        assert data == b"persist"

    def test_access_while_off_rejected(self):
        emram = EMRAMDevice()
        emram.power_off()
        with pytest.raises(MemoryFault):
            emram.read(0, 1)
        with pytest.raises(MemoryFault):
            emram.write(0, b"x")

    def test_zero_standby_power(self):
        """Non-volatility is the point: no refresh, no retention supply."""
        domain = PowerDomain("d")
        pcm = PCMDevice(capacity_bytes=1 << 20, power_component=domain.new_component("pcm"))
        assert domain.components[0].power_watts == 0.0


class TestAsymmetry:
    def test_pcm_writes_slower_than_reads(self):
        pcm = PCMDevice(capacity_bytes=1 << 20)
        write_latency = pcm.write(0, bytes(64 * 1024))
        _, read_latency = pcm.read(0, 64 * 1024)
        assert write_latency > read_latency

    def test_emram_faster_than_pcm(self):
        """Sec. 8.3 assumes an optimistic, SRAM-comparable eMRAM."""
        pcm = PCMDevice(capacity_bytes=1 << 20)
        emram = EMRAMDevice(capacity_bytes=1 << 20)
        blob = bytes(16 * 1024)
        assert emram.write(0, blob) < pcm.write(0, blob)


class TestEndurance:
    def test_wear_counted_per_region(self):
        device = NVMDevice("nvm", 1 << 20, 1e9, 1e9, 0, 0, endurance_cycles=3)
        for _ in range(3):
            device.write(0, b"x")
        assert device.max_writes_per_region == 3
        with pytest.raises(MemoryFault):
            device.write(0, b"x")

    def test_wear_level_report(self):
        device = NVMDevice("nvm", 1 << 20, 1e9, 1e9, 0, 0)
        device.write(0, b"x")
        device.write(8192, b"y")
        report = device.wear_level_report()
        assert report == {0: 1, 2: 1}

    def test_emram_unlimited_endurance(self):
        """The optimistic eMRAM of Sec. 8.3: endurance comparable to SRAM."""
        emram = EMRAMDevice(capacity_bytes=4096)
        assert emram.endurance_cycles is None

    def test_pcm_endurance_finite(self):
        pcm = PCMDevice(capacity_bytes=1 << 20)
        assert pcm.endurance_cycles == 100_000_000

    def test_tracking_counts_all_touched_regions(self):
        device = NVMDevice("nvm", 1 << 20, 1e9, 1e9, 0, 0)
        device.write(4000, bytes(500))  # spans regions 0 and 1
        assert device.wear_level_report() == {0: 1, 1: 1}
