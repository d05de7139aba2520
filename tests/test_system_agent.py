"""Tests for the system agent and its context-flushing FSMs."""

import pytest

from repro.errors import FlowError, MemoryFault
from repro.memory.controller import MemoryController
from repro.memory.dram import DRAMDevice
from repro.memory.region import MemoryRegion
from repro.processor.system_agent import SystemAgent
from repro.sgx.cache import MEECache
from repro.sgx.integrity_tree import TreeGeometry
from repro.sgx.mee import MemoryEncryptionEngine
from repro.units import GIB

REGION_BASE = 1 << 20


def make_sa(protected=True, context_bytes=8 * 1024):
    dram = DRAMDevice("dram", capacity_bytes=1 * GIB)
    controller = MemoryController("mc", dram)
    if protected:
        geometry = TreeGeometry.for_data_size(REGION_BASE, 2 * context_bytes)
        mee = MemoryEncryptionEngine(dram, geometry, b"k" * 32, MEECache())
        mee.initialize_region()
        controller.attach_mee(
            mee, MemoryRegion(REGION_BASE, geometry.data_blocks * 64)
        )
    sa = SystemAgent(controller, context_bytes)
    sa.configure_fsms(REGION_BASE, REGION_BASE + context_bytes)
    return sa, dram


class TestContext:
    def test_capture_changes_each_generation(self):
        sa, _ = make_sa()
        first = sa.capture_context()
        second = sa.capture_context()
        assert first != second
        assert len(first) == sa.context_bytes

    def test_verify_rejects_stale(self):
        sa, _ = make_sa()
        old = sa.capture_context()
        sa.capture_context()
        with pytest.raises(FlowError):
            sa.verify_restored(old)

    def test_verify_without_capture_rejected(self):
        sa, _ = make_sa()
        with pytest.raises(FlowError):
            sa.verify_restored(b"x")


class TestFSMs:
    def test_flush_restore_roundtrip_through_mee(self):
        sa, dram = make_sa()
        blob = sa.capture_context()
        latency = sa.sa_fsm_flush(blob)
        assert latency > 0
        restored, read_latency = sa.sa_fsm_restore(len(blob))
        assert restored == blob
        assert read_latency > 0
        # protected: the at-rest bytes differ from the plaintext
        assert dram._store.read(REGION_BASE, 64) != blob[:64]

    def test_llc_fsm_uses_second_base_address(self):
        sa, _ = make_sa()
        sa_blob = sa.capture_context()
        compute_blob = bytes(range(256)) * 16
        sa.sa_fsm_flush(sa_blob)
        sa.llc_fsm_flush(compute_blob)
        restored_sa, _ = sa.sa_fsm_restore(len(sa_blob))
        restored_compute, _ = sa.llc_fsm_restore(len(compute_blob))
        assert restored_sa == sa_blob
        assert restored_compute == compute_blob

    def test_unprotected_fallback_path(self):
        """Without an MEE the FSMs fall back to plain controller writes
        (the chipset-SRAM and eMRAM configurations never hit this, but
        the SA must not crash on an unprotected region)."""
        sa, dram = make_sa(protected=False)
        blob = sa.capture_context()
        sa.sa_fsm_flush(blob)
        restored, _ = sa.sa_fsm_restore(len(blob))
        assert restored == blob
        # unprotected: plaintext at rest
        assert dram._store.read(REGION_BASE, 64) == blob[:64]

    def test_unconfigured_fsms_rejected(self):
        dram = DRAMDevice("dram", capacity_bytes=1 * GIB)
        sa = SystemAgent(MemoryController("mc", dram), 1024)
        with pytest.raises(FlowError):
            sa.sa_fsm_flush(b"x")
        with pytest.raises(FlowError):
            sa.configure_fsms(-1, 0)

    def test_stats_count_protected_traffic(self):
        sa, _ = make_sa()
        blob = sa.capture_context()
        sa.sa_fsm_flush(blob)
        sa.sa_fsm_restore(len(blob))
        stats = sa.controller.stats
        assert stats.protected_writes == 1
        assert stats.protected_reads == 1
        assert stats.bytes_written == len(blob)

    def test_bulk_transfer_while_controller_off_faults(self):
        """The FSMs route through the controller, so a powered-off
        controller refuses a bulk save or restore before the MEE runs."""
        sa, _ = make_sa()
        blob = sa.capture_context()
        sa.sa_fsm_flush(blob)
        mee_blocks = sa.controller.mee.stats.blocks_written
        sa.controller.power_off()
        with pytest.raises(MemoryFault):
            sa.sa_fsm_flush(blob)
        with pytest.raises(MemoryFault):
            sa.sa_fsm_restore(len(blob))
        assert sa.controller.mee.stats.blocks_written == mee_blocks
        assert sa.controller.mee.stats.blocks_read == 0
