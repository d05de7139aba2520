"""Tests for the DRAM device model."""

import pytest

from repro.errors import MemoryFault
from repro.memory.dram import DRAMDevice, DRAMState
from repro.power.domain import PowerDomain
from repro.units import GIB


def make_dram(capacity=1 * GIB, domain=None, **kwargs):
    component = domain.new_component("dram") if domain is not None else None
    return DRAMDevice("dram", capacity_bytes=capacity, power_component=component, **kwargs)


class TestStates:
    def test_active_allows_access(self):
        dram = make_dram()
        dram.write(0, b"abc")
        data, latency = dram.read(0, 3)
        assert data == b"abc"
        assert latency > 0

    def test_self_refresh_retains_data_but_blocks_access(self):
        dram = make_dram()
        dram.write(0, b"abc")
        dram.enter_self_refresh()
        assert dram.state is DRAMState.SELF_REFRESH
        with pytest.raises(MemoryFault):
            dram.read(0, 3)
        dram.exit_self_refresh()
        data, _ = dram.read(0, 3)
        assert data == b"abc"

    def test_power_off_loses_data(self):
        dram = make_dram()
        dram.write(0, b"abc")
        dram.power_off()
        dram.power_on()
        data, _ = dram.read(0, 3)
        assert data == b"\x00\x00\x00"

    def test_self_refresh_of_off_device_rejected(self):
        dram = make_dram()
        dram.power_off()
        with pytest.raises(MemoryFault):
            dram.enter_self_refresh()


class TestPower:
    def test_self_refresh_cheaper_than_active(self):
        domain = PowerDomain("d")
        dram = make_dram(domain=domain)
        component = domain.components[0]
        active = component.power_watts
        dram.enter_self_refresh()
        self_refresh = component.power_watts
        assert 0 < self_refresh < active

    def test_self_refresh_power_frequency_independent(self):
        dram = make_dram()
        before = dram.self_refresh_power_watts()
        dram.set_frequency(0.8e9)
        assert dram.self_refresh_power_watts() == pytest.approx(before)

    def test_active_power_scales_with_frequency(self):
        dram = make_dram()
        at_full = dram.active_standby_power_watts()
        dram.set_frequency(0.8e9)
        assert dram.active_standby_power_watts() < at_full


class TestTimingAndFrequency:
    def test_bandwidth_formula(self):
        dram = make_dram(transfer_rate_hz=1.6e9, channels=2, bus_bytes=8, bus_efficiency=0.7)
        assert dram.bandwidth_bytes_per_s() == pytest.approx(1.6e9 * 8 * 2 * 0.7)

    def test_lower_frequency_means_longer_transfers(self):
        """Sec. 8.2: 'Memory bandwidth reduction increases the entry and
        exit latencies ... a longer time is needed to save/restore'."""
        dram = make_dram()
        fast = dram.transfer_latency_ps(200 * 1024)
        dram.set_frequency(0.8e9)
        slow = dram.transfer_latency_ps(200 * 1024)
        assert slow > fast

    def test_latency_has_fixed_and_streaming_parts(self):
        dram = make_dram()
        tiny = dram.transfer_latency_ps(64)
        large = dram.transfer_latency_ps(1 << 20)
        assert tiny >= dram.base_access_latency_ps
        assert large > 10 * tiny

    def test_zero_length_transfer_free(self):
        dram = make_dram()
        assert dram.transfer_latency_ps(0) == 0

    def test_retrain_requires_active_state(self):
        dram = make_dram()
        dram.enter_self_refresh()
        with pytest.raises(MemoryFault):
            dram.set_frequency(0.8e9)

    def test_invalid_frequency_rejected(self):
        dram = make_dram()
        with pytest.raises(MemoryFault):
            dram.set_frequency(0.0)

    def test_zero_length_latency_is_memoized_once(self, monkeypatch):
        """A memoized 0 (a zero-length access) is a hit, for reads and writes."""
        lengths = []
        latency = DRAMDevice.transfer_latency_ps

        def counted(self, length):
            lengths.append(length)
            return latency(self, length)

        monkeypatch.setattr(DRAMDevice, "transfer_latency_ps", counted)
        dram = make_dram()
        assert dram.read_spans([(0, 0), (8, 0), (16, 0)]) == ([b"", b"", b""], 0)
        assert dram.write(0, b"") == 0
        assert dram.read(0, 0) == (b"", 0)
        assert dram.write(0, bytes(64)) == dram.read_spans([(0, 64)])[1] > 0
        assert lengths == [0, 64]
