"""Tests for processor-side units: C-states, compute, LLC, SRAMs, boot."""

import hashlib
from collections import OrderedDict
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ActivePowerModel, ContextInventory
from repro.errors import FlowError, MemoryFault
from repro.memory.controller import MemoryController
from repro.memory.dram import DRAMDevice
from repro.power.domain import PowerDomain
from repro.processor.boot import BootSRAM
from repro.processor import core
from repro.processor.core import ComputeDomain, synthesize_context
from repro.processor.cstates import CSTATE_EXIT_LATENCY_PS, CState
from repro.processor.llc import LastLevelCache
from repro.processor.sr_sram import SaveRestoreSRAMs
from repro.processor.system_agent import SystemAgent
from repro.units import GIB


class TestCStates:
    def test_ordering(self):
        assert CState.C10 > CState.C8 > CState.C6 > CState.C2 > CState.C0

    def test_flags(self):
        assert CState.C0.is_active
        assert CState.C10.is_drips
        assert not CState.C8.is_drips

    def test_exit_latencies_monotonic(self):
        """Deeper states must cost more to exit (the LTR trade)."""
        ladder = [CState.C0, CState.C2, CState.C6, CState.C8, CState.C10]
        latencies = [CSTATE_EXIT_LATENCY_PS[state] for state in ladder]
        assert latencies == sorted(latencies)


class TestComputeDomain:
    def make(self):
        domain = PowerDomain("compute")
        compute = ComputeDomain("proc", domain, ActivePowerModel(), 0.8, 4096)
        return domain, compute

    def test_active_power_from_model(self):
        domain, compute = self.make()
        compute.start()
        model = ActivePowerModel()
        assert compute.component.power_watts == pytest.approx(
            model.core_dynamic_watts(0.8)
        )

    def test_task_duration_scales_inverse_frequency(self):
        _domain, compute = self.make()
        cycles = 80_000_000
        at_slow = compute.task_duration_ps(cycles)
        compute.set_frequency(1.6)
        assert compute.task_duration_ps(cycles) == pytest.approx(at_slow / 2, rel=1e-9)

    def test_run_task_requires_active(self):
        _domain, compute = self.make()
        with pytest.raises(FlowError):
            compute.run_task(100)

    def test_start_requires_powered_domain(self):
        domain, compute = self.make()
        domain.power_off()
        with pytest.raises(FlowError):
            compute.start()

    def test_voltage_rides_vmin_floor(self):
        """Fig. 6(b) mechanism: V flat up to 1.0 GHz, rising above."""
        _domain, compute = self.make()
        model = compute.active_model
        assert model.voltage(0.8) == model.voltage(1.0)
        assert model.voltage(1.5) > model.voltage(1.0)

    def test_context_generations_differ(self):
        _domain, compute = self.make()
        first = compute.capture_context()
        second = compute.capture_context()
        assert first != second
        compute.verify_restored(second)
        with pytest.raises(FlowError):
            compute.verify_restored(first)

    def test_verify_without_capture_rejected(self):
        _domain, compute = self.make()
        with pytest.raises(FlowError):
            compute.verify_restored(b"x")

    def test_synthesize_context_deterministic(self):
        assert synthesize_context("a", 100, 1) == synthesize_context("a", 100, 1)
        assert synthesize_context("a", 100, 1) != synthesize_context("b", 100, 1)

    @pytest.mark.parametrize(
        "label, length, generation, sha256",
        [
            ("system_agent", 64 * 1024, 1,
             "aac03d32b456866e66bb3586b3346798079312ec2476970a1a1b555c97dcd0e0"),
            ("cores", 1000, 3,
             "fa35fc45a34a28c26e82aaa53049e6fc4b3ec52082a2a2823d418e73d8e35783"),
        ],
    )
    def test_synthesize_context_pinned(self, label, length, generation, sha256):
        """Changing the generator must be a deliberate, visible edit."""
        blob = synthesize_context(label, length, generation)
        assert len(blob) == length
        assert hashlib.sha256(blob).hexdigest() == sha256

    def test_synthesize_context_empty(self):
        assert synthesize_context("system_agent", 0, 1) == b""

    def test_synthesize_context_negative_length_rejected(self):
        with pytest.raises(FlowError):
            synthesize_context("system_agent", -1, 1)


def context_owners(label, length):
    """Both context owners, each with the label its images are keyed by."""
    compute = ComputeDomain(label, PowerDomain("compute"), ActivePowerModel(), 0.8, length)
    controller = MemoryController("mc", DRAMDevice("dram", capacity_bytes=GIB))
    return [(label, compute), ("system_agent", SystemAgent(controller, length))]


class TestContextImage:
    @settings(max_examples=25, deadline=None)
    @given(
        label=st.text(min_size=1, max_size=12),
        length=st.integers(min_value=1, max_value=64 * 1024),
        captures=st.integers(min_value=1, max_value=300),
    )
    def test_captures_follow_the_generator(self, label, length, captures):
        """Rotating the held image equals synthesizing each generation."""
        for key, owner in context_owners(label, length):
            previous = None
            for generation in range(1, captures + 1):
                image = owner.capture_context()
                assert image == synthesize_context(key, length, generation)
                assert owner.expected_context is image
                if previous is not None and length >= 64:
                    xor = int.from_bytes(previous, "big") ^ int.from_bytes(image, "big")
                    differing = length - xor.to_bytes(length, "big").count(0)
                    assert differing >= 0.9 * length
                previous = image
            owner.verify_restored(previous)

    @settings(max_examples=40, deadline=None)
    @given(
        calls=st.lists(
            st.tuples(
                st.one_of(st.sampled_from(["cores", "system_agent", ""]), st.text(max_size=8)),
                st.sampled_from([1, 63, 64, 1000, 64 * 1024]),
                st.integers(min_value=0, max_value=10**6),
            ),
            min_size=1,
            max_size=16,
        )
    )
    def test_memoized_bases_equal_fresh_hashes(self, calls):
        """Hits, misses and evictions alike, every image is a rotation of a
        fresh SHAKE-256 output, and the memo stays within its bound."""
        with mock.patch.object(core, "_BASES", OrderedDict()):
            for label, length, generation in calls:
                fresh = hashlib.shake_256(label.encode("utf-8")).digest(length)
                shift = generation % length
                assert synthesize_context(label, length, generation) == (
                    fresh[shift:] + fresh[:shift]
                )
                assert core._BASES[(label, length)] == fresh
                assert list(core._BASES)[-1] == (label, length)  # most recent last
                assert len(core._BASES) <= core._BASE_SLOTS

    def test_one_label_at_two_lengths_is_two_entries(self):
        """SHAKE outputs of one label share a prefix; the memo still keeps
        each length as its own image."""
        with mock.patch.object(core, "_BASES", OrderedDict()):
            short = synthesize_context("cores", 64, 0)
            long = synthesize_context("cores", 128, 0)
            assert long[:64] == short and len(long) == 128
            assert list(core._BASES) == [("cores", 64), ("cores", 128)]

    def test_memo_evicts_the_least_recently_used(self):
        with mock.patch.object(core, "_BASES", OrderedDict()):
            keys = [(f"owner{i}", 32) for i in range(core._BASE_SLOTS)]
            for label, length in keys:
                synthesize_context(label, length, 1)
            synthesize_context(*keys[0], 1)  # a hit makes the oldest the newest
            synthesize_context("newcomer", 32, 1)
            assert list(core._BASES) == [*keys[2:], keys[0], ("newcomer", 32)]

    def test_generation_wraps_at_length(self):
        assert synthesize_context("cores", 100, 3) == synthesize_context("cores", 100, 103)
        assert synthesize_context("cores", 100, 0) == hashlib.shake_256(b"cores").digest(100)

    def test_owners_keep_their_messages(self):
        (_, compute), (_, agent) = context_owners("proc", 256)
        with pytest.raises(FlowError, match="^proc: no context was captured$"):
            compute.verify_restored(b"x")
        with pytest.raises(FlowError, match="^system agent: no context was captured$"):
            agent.verify_restored(b"x")
        compute.capture_context()
        agent.capture_context()
        with pytest.raises(FlowError,
                           match="^proc: restored context does not match saved context$"):
            compute.verify_restored(b"x")
        with pytest.raises(FlowError, match="^system agent: restored context does not match$"):
            agent.verify_restored(b"x")


class TestLLC:
    def test_flush_latency_scales_with_dirt(self):
        llc = LastLevelCache(3 * 1024 * 1024, typical_dirty_fraction=0.25)
        llc.mark_typical_dirty()
        full = llc.flush_latency_ps(17.9e9)
        llc.flush()
        llc.touch(1024)
        assert llc.flush_latency_ps(17.9e9) < full

    def test_power_off_requires_clean(self):
        llc = LastLevelCache(1024)
        llc.touch(100)
        with pytest.raises(FlowError):
            llc.power_off()
        llc.flush()
        llc.power_off()
        assert not llc.powered

    def test_flush_returns_bytes_and_clears(self):
        llc = LastLevelCache(1024)
        llc.touch(300)
        assert llc.flush() == 300
        assert llc.dirty_bytes == 0
        assert llc.flush_count == 1

    def test_dirty_capped_at_capacity(self):
        llc = LastLevelCache(1024)
        llc.touch(5000)
        assert llc.dirty_bytes == 1024

    def test_flush_powered_off_rejected(self):
        llc = LastLevelCache(1024)
        llc.power_off()
        with pytest.raises(FlowError):
            llc.flush()


class TestSaveRestoreSRAMs:
    def make(self):
        domain = PowerDomain("retention")
        inventory = ContextInventory(
            system_agent_bytes=1024, cores_bytes=2048, graphics_bytes=1024
        )
        return domain, SaveRestoreSRAMs(domain, inventory, retention_budget_watts=0.0054)

    def test_budget_split_by_capacity(self):
        _domain, srams = self.make()
        assert srams.retention_power_watts == pytest.approx(0.0054)
        assert srams.compute_sram.retention_power_watts() == pytest.approx(
            3 * srams.sa_sram.retention_power_watts()
        )

    def test_context_roundtrip_through_retention(self):
        _domain, srams = self.make()
        sa = synthesize_context("sa", 1024)
        compute = synthesize_context("cores", 3072)
        srams.save_sa_context(sa)
        srams.save_compute_context(compute)
        srams.enter_retention()
        srams.exit_retention()
        assert srams.load_sa_context(1024) == sa
        assert srams.load_compute_context(3072) == compute

    def test_oversized_context_rejected(self):
        _domain, srams = self.make()
        with pytest.raises(MemoryFault):
            srams.save_sa_context(bytes(2048))

    def test_power_off_drops_draw(self):
        domain, srams = self.make()
        srams.power_off()
        assert domain.nominal_load_watts() == 0.0


class TestBootSRAM:
    def test_store_and_load_record(self):
        domain = PowerDomain("pmu")
        boot = BootSRAM(domain)
        boot.store({"firmware_state": {"a": 1}, "wake_target": 5},
                   {"protected_base": 100, "protected_size": 10, "locked": True},
                   b"\x01\x02")
        record = boot.load()
        assert record["pmu"]["wake_target"] == 5
        assert record["controller"]["locked"] is True
        assert record["mee"] == b"\x01\x02"

    def test_mee_state_optional(self):
        boot = BootSRAM(PowerDomain("pmu"))
        boot.store({}, {}, None)
        assert boot.load()["mee"] is None

    def test_empty_boot_sram_rejected(self):
        boot = BootSRAM(PowerDomain("pmu"))
        with pytest.raises(FlowError):
            boot.load()

    def test_oversized_record_rejected(self):
        boot = BootSRAM(PowerDomain("pmu"), capacity_bytes=64)
        with pytest.raises(MemoryFault):
            boot.store({"firmware_state": {"k" * 100: 1}, "wake_target": None}, {}, None)

    def test_paper_size_bound(self):
        """Sec. 6.2: ~1 KB, 'only 0.5% of the entire processor context'."""
        from repro.config import ContextInventory

        inventory = ContextInventory()
        assert inventory.boot_bytes / inventory.total_bytes == pytest.approx(0.005, abs=0.001)
