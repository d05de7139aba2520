"""Failure injection: attacks and faults during the idle window.

The flows must fail *loudly* when the world misbehaves while the
processor context sits in DRAM: tampering, replay, memory power loss,
ordering violations.  Silent corruption would defeat the entire point of
CTX-SGX-DRAM.
"""

import pytest

from repro.core.techniques import ContextStore, Technique, TechniqueSet
from repro.errors import FlowError, MemoryFault, SecurityError
from repro.system.flows import FlowController
from repro.system.states import PlatformState

from _platform import build_platform


def enter_drips(techniques, idle_s=10.0):
    """Drive a platform into DRIPS and return (platform, flows)."""
    platform = build_platform(techniques, small_context=True)
    flows = FlowController(platform)
    platform.boot()
    platform.pmu.schedule_timer_event(platform.next_timer_target(idle_s))
    flows.request_drips()
    platform.kernel.run(until_ps=platform.kernel.now + 5 * 10**9)
    assert platform.state is PlatformState.DRIPS
    return platform, flows


class TestDRAMTampering:
    def test_ciphertext_corruption_detected_on_exit(self):
        """A bit flip in the sleeping context (RowHammer-style) must
        abort the restore with a SecurityError, not restore garbage."""
        platform, _flows = enter_drips(TechniqueSet.odrips())
        base = platform.context_region.base
        victim = platform.board.memory._store.read(base, 64)
        platform.board.memory._store.write(
            base, bytes([victim[0] ^ 0x80]) + victim[1:]
        )
        with pytest.raises(SecurityError):
            platform.kernel.run(max_events=100_000)

    def test_metadata_corruption_detected_on_exit(self):
        platform, _flows = enter_drips(TechniqueSet.odrips())
        geometry = platform.mee.geometry
        platform.board.memory._store.write(
            geometry.version_address(0), b"\xff" * 8
        )
        with pytest.raises(SecurityError):
            platform.kernel.run(max_events=100_000)

    def test_violation_counted(self):
        platform, _flows = enter_drips(TechniqueSet.odrips())
        base = platform.context_region.base
        victim = platform.board.memory._store.read(base, 64)
        platform.board.memory._store.write(base, bytes(64))
        with pytest.raises(SecurityError):
            platform.kernel.run(max_events=100_000)
        assert platform.mee.stats.integrity_violations >= 1
        assert victim != bytes(64)


PAGE = 4096


def run_cycle(platform, flows, idle_s=0.05):
    """One full DRIPS cycle from ACTIVE back to ACTIVE."""
    woke = []
    flows.set_active_callback(woke.append)
    platform.pmu.schedule_timer_event(platform.next_timer_target(idle_s))
    flows.request_drips()
    platform.kernel.run(max_events=100_000)
    assert woke and platform.state is PlatformState.ACTIVE


def context_stores(platform):
    """``(backing memory, offset)`` of the SA and compute images."""
    store = platform.techniques.context_store
    if store is ContextStore.PROCESSOR_SRAM:
        return ((platform.sr_srams.sa_sram._store, 0),
                (platform.sr_srams.compute_sram._store, 0))
    device = (platform.chipset_context_sram if store is ContextStore.CHIPSET_SRAM
              else platform.emram)
    sa_bytes = platform.config.context.system_agent_bytes
    return (device._store, 0), (device._store, sa_bytes)


STORES_OUTSIDE_MEE = [
    TechniqueSet.baseline(),
    TechniqueSet({Technique.CTX_SGX_DRAM}, ContextStore.CHIPSET_SRAM),
    TechniqueSet.odrips_mram(),
]


class TestStaleContextRestore:
    """A store outside the MEE that hands back the previous cycle's
    context, whole or in part, must fail the exit flow's verification."""

    def second_drips_with_first_images(self, techniques):
        platform = build_platform(techniques, small_context=True)
        flows = FlowController(platform)
        platform.boot()
        run_cycle(platform, flows)
        first = (platform.system_agent.expected_context,
                 platform.compute.expected_context)
        platform.pmu.schedule_timer_event(platform.next_timer_target(10.0))
        flows.request_drips()
        platform.kernel.run(until_ps=platform.kernel.now + 5 * 10**9)
        assert platform.state is PlatformState.DRIPS
        assert platform.compute.expected_context != first[1]
        return platform, first

    @pytest.mark.parametrize("techniques", STORES_OUTSIDE_MEE,
                             ids=lambda t: t.context_store.value)
    def test_whole_stale_image_rejected(self, techniques):
        platform, first = self.second_drips_with_first_images(techniques)
        for (memory, offset), image in zip(context_stores(platform), first):
            memory.write(offset, image)
        with pytest.raises(FlowError, match="does not match"):
            platform.kernel.run(max_events=100_000)

    @pytest.mark.parametrize("techniques", STORES_OUTSIDE_MEE,
                             ids=lambda t: t.context_store.value)
    def test_stale_last_page_rejected(self, techniques):
        platform, (_sa, compute) = self.second_drips_with_first_images(techniques)
        memory, offset = context_stores(platform)[1]
        memory.write(offset + len(compute) - PAGE, compute[-PAGE:])
        with pytest.raises(FlowError, match="does not match"):
            platform.kernel.run(max_events=100_000)


class TestMemoryPowerLoss:
    def test_dram_power_loss_during_sleep_faults_restore(self):
        """If the DRAM loses power mid-sleep the context is gone; the
        exit flow must fail on verification, never hand back zeros."""
        platform, _flows = enter_drips(TechniqueSet.odrips())
        platform.board.memory.power_off()
        platform.board.memory.power_on()  # contents lost
        with pytest.raises((SecurityError, FlowError, MemoryFault)):
            platform.kernel.run(max_events=100_000)

    def test_baseline_sram_power_loss_faults_restore(self):
        platform, _flows = enter_drips(TechniqueSet.baseline())
        platform.sr_srams.power_off()  # retention supply collapsed
        with pytest.raises((FlowError, MemoryFault)):
            platform.kernel.run(max_events=100_000)

    def test_nvm_power_loss_is_harmless(self):
        """eMRAM keeps the context with the supply off — that's the
        whole point of ODRIPS-MRAM."""
        platform, _flows = enter_drips(TechniqueSet.odrips_mram())
        # supply was already removed by the entry flow; cycle it again
        platform.emram.power_off()
        platform.emram.power_on()
        platform.emram.power_off()
        platform.kernel.run(max_events=100_000)
        assert platform.state is PlatformState.ACTIVE


class TestOrderingViolations:
    def test_double_entry_rejected(self):
        platform = build_platform(TechniqueSet.baseline())
        flows = FlowController(platform)
        platform.boot()
        platform.pmu.schedule_timer_event(platform.next_timer_target(5.0))
        flows.request_drips()
        with pytest.raises(FlowError):
            flows.request_drips()
        platform.kernel.run(max_events=100_000)

    def test_access_dram_during_self_refresh_faults(self):
        platform, _flows = enter_drips(TechniqueSet.baseline())
        with pytest.raises(MemoryFault):
            platform.memory_controller.read(0, 64)

    def test_pml_unusable_while_gated(self):
        from repro.errors import IOError_
        from repro.io.pml import PMLMessage

        platform, _flows = enter_drips(TechniqueSet.odrips())
        with pytest.raises(IOError_):
            platform.pml.to_chipset.send(PMLMessage("ping"))
        platform.kernel.run(max_events=100_000)

    def test_frozen_tsc_has_no_deadlines(self):
        from repro.errors import TimerError

        platform, _flows = enter_drips(TechniqueSet.odrips())
        assert platform.pmu.tsc.frozen
        with pytest.raises(TimerError):
            platform.pmu.tsc.time_of_count(10**9, platform.kernel.now)
        platform.kernel.run(max_events=100_000)
