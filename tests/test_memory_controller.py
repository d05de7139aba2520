"""Tests for the memory controller: routing, protection, self-refresh."""

import pytest

from repro.errors import MemoryFault
from repro.memory.controller import MemoryController
from repro.memory.dram import DRAMDevice
from repro.memory.region import MemoryRegion
from repro.sgx.cache import MEECache
from repro.sgx.integrity_tree import TreeGeometry
from repro.sgx.mee import MemoryEncryptionEngine
from repro.units import GIB


def make_controller(with_mee=False, region_base=1 << 20, data_size=16 * 1024):
    dram = DRAMDevice("dram", capacity_bytes=1 * GIB)
    controller = MemoryController("mc", dram)
    mee = None
    if with_mee:
        geometry = TreeGeometry.for_data_size(region_base, data_size)
        mee = MemoryEncryptionEngine(dram, geometry, b"k" * 32, MEECache())
        mee.initialize_region()
        controller.attach_mee(mee, MemoryRegion(region_base, geometry.data_blocks * 64))
    return controller, dram, mee


class TestPlainRouting:
    def test_unprotected_roundtrip(self):
        controller, _dram, _ = make_controller()
        controller.write(5000, b"plain")
        data, latency = controller.read(5000, 5)
        assert data == b"plain"
        assert latency > 0

    def test_stats_counted(self):
        controller, _dram, _ = make_controller()
        controller.write(0, b"xy")
        controller.read(0, 2)
        assert controller.stats.writes == 1
        assert controller.stats.reads == 1
        assert controller.stats.bytes_written == 2

    def test_protected_access_without_mee_faults(self):
        controller, _dram, _ = make_controller()
        controller.range_register.program(MemoryRegion(0, 1024))
        with pytest.raises(MemoryFault):
            controller.read(0, 16)

    @pytest.mark.parametrize("call", ["read", "write", "bulk_read", "bulk_write"])
    def test_faulted_protected_access_is_not_counted(self, call):
        controller, _dram, _ = make_controller()
        controller.range_register.program(MemoryRegion(0, 1024))
        argument = 16 if call.endswith("read") else bytes(16)
        with pytest.raises(MemoryFault, match="without an MEE"):
            getattr(controller, call)(0, argument)
        assert controller.stats == type(controller.stats)()


class TestProtectedRouting:
    def test_protected_roundtrip_through_mee(self):
        controller, dram, _mee = make_controller(with_mee=True)
        secret = b"secret-context!!" * 4
        controller.write(1 << 20, secret)
        data, _ = controller.read(1 << 20, len(secret))
        assert data == secret
        assert controller.stats.protected_writes == 1
        assert controller.stats.protected_reads == 1

    def test_protected_data_is_encrypted_at_rest(self):
        controller, dram, _mee = make_controller(with_mee=True)
        secret = b"A" * 64
        controller.write(1 << 20, secret)
        raw = dram._store.read(1 << 20, 64)
        assert raw != secret  # ciphertext, not plaintext

    def test_straddling_access_faults(self):
        controller, _dram, mee = make_controller(with_mee=True)
        region = controller.range_register.region
        with pytest.raises(MemoryFault):
            controller.read(region.base - 8, 16)
        with pytest.raises(MemoryFault):
            controller.write(region.end - 8, bytes(16))

    def test_range_register_locked_after_attach(self):
        controller, _dram, _mee = make_controller(with_mee=True)
        assert controller.range_register.locked


class TestSelfRefresh:
    def test_cke_follows_commands(self):
        controller, dram, _ = make_controller()
        assert bool(controller.cke)
        controller.enter_self_refresh()
        assert not bool(controller.cke)
        assert controller.in_self_refresh
        controller.exit_self_refresh()
        assert bool(controller.cke)

    def test_access_during_self_refresh_faults(self):
        controller, _dram, _ = make_controller()
        controller.enter_self_refresh()
        with pytest.raises(MemoryFault):
            controller.read(0, 8)


class TestPowerCycle:
    def test_access_while_off_faults(self):
        controller, _dram, _ = make_controller()
        controller.power_off()
        with pytest.raises(MemoryFault):
            controller.read(0, 8)

    def test_state_export_import(self):
        controller, _dram, _mee = make_controller(with_mee=True)
        state = controller.export_state()
        fresh_dram = DRAMDevice("dram2", capacity_bytes=1 * GIB)
        fresh = MemoryController("mc2", fresh_dram)
        fresh.import_state(state)
        region = fresh.range_register.region
        assert region is not None
        assert region.base == 1 << 20
        assert fresh.range_register.locked
