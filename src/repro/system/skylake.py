"""The integrated Skylake mobile platform (Fig. 1(a) + Fig. 3(a)).

``SkylakePlatform`` builds the whole system — power tree, clocks, timers,
memory, MEE, processor, chipset, board — from a
:class:`~repro.config.PlatformConfig` and a
:class:`~repro.core.techniques.TechniqueSet`, and exposes the state
application primitives the flow controller sequences.

Power-accounting convention: all configured component powers are
**battery-side** (what the paper's N6705B analyzer measures), so the
Fig. 1(b) shares fall directly out of the component inventory.  The
power-delivery "tax" of Sec. 8 shows up as the explicit VR-quiescent
components (retention rail, AON rail) that the techniques turn off.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.chipset.pch import Chipset
from repro.config import PlatformConfig, skylake_config
from repro.core.techniques import ContextStore, TechniqueSet
from repro.errors import ConfigError, FlowError
from repro.io.pads import AONIOBank
from repro.io.pml import PMLLink
from repro.memory.controller import MemoryController
from repro.memory.nvm import EMRAMDevice
from repro.memory.region import MemoryRegion
from repro.memory.sram import SRAMDevice
from repro.memory.wear_leveling import RotatingContextAllocator
from repro.obs.hook import active
from repro.power.tree import PowerTree
from repro.processor.boot import BootSRAM
from repro.processor.core import ComputeDomain
from repro.processor.llc import LastLevelCache
from repro.processor.pmu import ProcessorPMU
from repro.processor.sr_sram import SaveRestoreSRAMs
from repro.processor.system_agent import SystemAgent
from repro.sgx.cache import MEECache
from repro.sgx.mee import MemoryEncryptionEngine
from repro.sgx.integrity_tree import TreeGeometry
from repro.sim.kernel import Kernel
from repro.sim.trace import TraceRecorder
from repro.system.board import Board
from repro.system.states import STATE_CHANNEL, WAKE_CHANNEL, PlatformState
from repro.timers.calibration import (
    fractional_bits_for_precision,
    integer_bits_for_ratio,
)
from repro.units import GIB

#: How the AON IO budget splits across the bank's pads (Sec. 3, Obs. 2).
AON_IO_PAD_SHARES = {
    "clk24_buffers": 0.310,   # differential 24 MHz clock buffers
    "pml_tx": 0.165,          # PML, processor-to-chipset
    "pml_rx": 0.165,          # PML, chipset-to-processor
    "thermal": 0.120,         # EC thermal reporting interface
    "vr_control": 0.095,      # voltage-regulator serial interface
    "reset": 0.070,           # reset circuitry
    "debug": 0.075,           # debug interface
}

#: Default master key for the MEE (stands in for fuse-derived keys).
DEFAULT_MEE_MASTER_KEY = b"skylake-fuse-derived-master-key!"


class SkylakePlatform:
    """A fully wired mobile platform ready for connected-standby runs."""

    def __init__(
        self,
        config: Optional[PlatformConfig] = None,
        techniques: Optional[TechniqueSet] = None,
        mee_cache_sets: int = 64,
        mee_cache_ways: int = 8,
    ) -> None:
        self.config = config if config is not None else skylake_config()
        self.techniques = techniques if techniques is not None else TechniqueSet.baseline()
        budget = self.config.budget

        # --- simulation backbone ------------------------------------------------
        self.kernel = Kernel()
        self.trace = TraceRecorder()
        self.tree = PowerTree(self.kernel, self.trace)

        # every component lands at t = 0: one evaluation once wiring is done
        with self.tree.batch():
            # --- rails and domains ------------------------------------------------
            rail_aon = self.tree.new_rail("proc_aon", 1.0)
            self.dom_proc_aon = rail_aon.new_domain("proc.aon")
            self.dom_pmu = rail_aon.new_domain("proc.pmu")
            self.dom_aon_io = rail_aon.new_domain("proc.aon_io")
            self.dom_aon_vr = rail_aon.new_domain("proc.aon_vr")

            rail_retention = self.tree.new_rail("sram_retention", 1.0)
            self.dom_sr_sram = rail_retention.new_domain("proc.sr_sram")
            self.dom_retention_vr = rail_retention.new_domain("proc.retention_vr")

            rail_chipset = self.tree.new_rail("chipset_aon", 1.0)
            self.dom_chipset = rail_chipset.new_domain("pch.aon")

            rail_board = self.tree.new_rail("board", 1.0)
            self.dom_board = rail_board.new_domain("board.clocks")
            self.dom_memory = rail_board.new_domain("memory")
            self.dom_flow = rail_board.new_domain("flow")

            self.rail_compute = self.tree.new_rail("compute", 1.0)
            self.dom_compute = self.rail_compute.new_domain("proc.compute")

            # --- board (crystals, memory device, FET, EC) ----------------------------
            self.board = Board(
                self.kernel,
                self.config,
                clock_domain=self.dom_board,
                memory_domain=self.dom_memory,
                context_store=self.techniques.context_store,
            )
            self.dom_aon_io.gate = self.board.aon_io_fet

            # --- fixed AON components ----------------------------------------------------
            self.timer_wake_component = self.dom_proc_aon.new_component(
                "proc.timer_wake", budget.timer_wakeup_monitor_w
            )
            self.cke_component = self.dom_proc_aon.new_component(
                "proc.cke_drive", budget.cke_drive_w
            )
            self.aon_vr_component = self.dom_aon_vr.new_component(
                "proc.aon_vr_quiescent", budget.aon_vr_quiescent_w
            )
            self.retention_vr_component = self.dom_retention_vr.new_component(
                "proc.retention_vr_quiescent", budget.sram_retention_vr_quiescent_w
            )

            # --- AON IO bank -----------------------------------------------------------------
            self.aon_io_bank = AONIOBank(self.dom_aon_io)
            for pad_name, share in AON_IO_PAD_SHARES.items():
                self.aon_io_bank.add_pad(
                    pad_name,
                    leakage_watts=budget.aon_io_bank_w * share,
                    wake_capable=pad_name in ("thermal", "pml_rx"),
                )

            # --- S/R SRAMs, Boot SRAM, LLC, compute, SA ------------------------------------------
            self.sr_srams = SaveRestoreSRAMs(
                self.dom_sr_sram, self.config.context, budget.sr_sram_w
            )
            self.boot_sram = BootSRAM(self.dom_pmu)
            self.llc = LastLevelCache(self.config.llc_bytes)
            self.uncore_component = self.dom_compute.new_component("proc.uncore")
            self.compute = ComputeDomain(
                "proc",
                self.dom_compute,
                self.config.active_model,
                frequency_ghz=self.config.min_core_ghz,
                context_bytes=self.config.context.cores_bytes + self.config.context.graphics_bytes,
            )

            # --- memory controller + protected region -------------------------------------------
            self.memory_controller = MemoryController("proc.mc", self.board.memory)
            self.mee: Optional[MemoryEncryptionEngine] = None
            self.context_region: Optional[MemoryRegion] = None
            self.context_allocator: Optional[RotatingContextAllocator] = None
            if self.techniques.context_store in (ContextStore.DRAM_SGX, ContextStore.PCM):
                region_base = 1 * GIB
                # PCM rewrites the context every cycle on finite-endurance
                # cells, so its protected region holds several rotation slots
                # (Sec. 6.1's endurance concern; see repro.memory.wear_leveling).
                slots = 4 if self.techniques.context_store is ContextStore.PCM else 1
                data_size = self.config.context.total_bytes * slots
                geometry = TreeGeometry.for_data_size(region_base, data_size)
                cache = MEECache(sets=mee_cache_sets, ways=mee_cache_ways)
                self.mee = MemoryEncryptionEngine(
                    self.board.memory, geometry, DEFAULT_MEE_MASTER_KEY, cache
                )
                self.context_region = MemoryRegion(
                    region_base, geometry.data_blocks * 64
                )
                self.memory_controller.attach_mee(self.mee, self.context_region)
                if slots > 1:
                    self.context_allocator = RotatingContextAllocator(
                        self.context_region.size, self.config.context.total_bytes
                    )

            # --- alternative context stores ----------------------------------------------------------
            self.chipset_context_sram: Optional[SRAMDevice] = None
            self.emram: Optional[EMRAMDevice] = None
            if self.techniques.context_store is ContextStore.CHIPSET_SRAM:
                per_byte = (
                    budget.sr_sram_w
                    / self.config.context.total_bytes
                    / SRAMDevice.PROCESS_LEAKAGE_RATIO
                )
                self.chipset_context_sram = SRAMDevice(
                    "pch.context_sram",
                    capacity_bytes=self.config.context.total_bytes,
                    leakage_watts_per_byte=per_byte,
                    power_component=self.dom_chipset.new_component("pch.context_sram"),
                )
            elif self.techniques.context_store is ContextStore.EMRAM:
                self.emram = EMRAMDevice(
                    capacity_bytes=max(256 * 1024, self.config.context.total_bytes),
                    power_component=self.dom_pmu.new_component("proc.emram"),
                )

            self.system_agent = SystemAgent(
                self.memory_controller, self.config.context.system_agent_bytes
            )

            # --- PMU -------------------------------------------------------------------------------------
            self.pmu = ProcessorPMU(
                self.kernel,
                self.board.fast_clock,
                component=self.dom_pmu.new_component("proc.pmu"),
                drips_power_watts=budget.pmu_ungated_w,
                deep_power_watts=budget.pmu_deep_gated_w,
            )

            # --- chipset --------------------------------------------------------------------------------------
            frac_bits = fractional_bits_for_precision(
                self.config.fast_xtal_hz, self.config.slow_xtal_hz,
                self.config.timer_precision_ppb,
            )
            int_bits = integer_bits_for_ratio(
                self.config.fast_xtal_hz, self.config.slow_xtal_hz
            )
            self.chipset = Chipset(
                self.kernel,
                self.dom_chipset,
                self.board.fast_clock,
                self.board.slow_clock,
                budget,
                timer_frac_bits=frac_bits,
                timer_int_bits=int_bits,
            )
            self.chipset.attach_thermal_line(self.board.ec.thermal_line)
            # The chipset drives the AON-IO FET's gate terminal through its
            # dedicated spare GPIO (Sec. 5.3); without this binding nothing
            # in the model can ever actuate the FET (lint rule M106).
            self.board.aon_io_fet.bind_gpio(self.chipset.fet_gpio)

            # --- PML -------------------------------------------------------------------------------------------
            # The chipset side pads live in the chipset AON domain; their power
            # is part of the proc-link slice, so the pads carry zero extra.
            pch_pml_pad = AONIOBank(self.dom_chipset).add_pad("pch_pml", 0.0)
            self.pml = PMLLink(
                self.kernel,
                self.board.fast_clock,
                processor_pad=self.aon_io_bank.pad("pml_tx"),
                chipset_pad=pch_pml_pad,
            )

            # --- bookkeeping ---------------------------------------------------------------------------------------
            self.flow_component = self.dom_flow.new_component("flow.transition")
        self.state = PlatformState.BOOT
        self._record_state()
        self._booted = False
        self.wake_log = []

        # --- observability (repro.obs) -------------------------------------------------------------------------------
        # Construction-time opt-in: platforms built while a tracer is
        # installed hand it to the hot seams; otherwise every seam stays
        # at a single `obs is None` attribute check.
        obs = active().tracer
        self.obs = obs
        self.kernel.obs = obs
        self.pmu.obs = obs
        self.chipset.wake_hub.obs = obs
        if obs is not None:
            obs.attach_platform(self)

    # ------------------------------------------------------------------ boot

    def boot(self) -> None:
        """One-time platform bring-up.

        Runs the Step calibration when WAKE-UP-OFF is enabled ("carried
        out only once after each reset", Sec. 4.1.3), initializes the
        protected region, and lands in the Active state.
        """
        if self._booted:
            raise FlowError("platform already booted")
        if self.techniques.wake_up_off:
            self.chipset.run_step_calibration()
        if self.mee is not None:
            self.mee.initialize_region()
            self.system_agent.configure_fsms(
                sa_base_addr=self.context_region.base,
                compute_base_addr=self.context_region.base
                + self.config.context.system_agent_bytes,
            )
        if self.techniques.context_store is not ContextStore.DRAM_SGX:
            # non-MEE stores still need FSM base addresses for the SRAM paths
            self.system_agent.configure_fsms(0, self.config.context.system_agent_bytes)
        if self.techniques.context_store is ContextStore.PROCESSOR_SRAM:
            self.boot_sram.sram.power_off()  # baseline has no Boot FSM
        self.apply_active_state()
        self._booted = True

    @property
    def booted(self) -> bool:
        return self._booted

    # ------------------------------------------------------- state application

    def apply_active_state(self) -> None:
        """Set every component to its C0 (display-off) level."""
        with self.tree.batch():
            self.state = PlatformState.ACTIVE
            if not self.rail_compute.regulator.enabled:
                self.rail_compute.turn_on()
            self.dom_compute.power_on()
            self.uncore_component.set_power(self.config.active_model.uncore_watts)
            self.compute.start()
            self.llc.power_on()
            if self.memory_controller.in_self_refresh:
                self.memory_controller.exit_self_refresh()
            if self.board.is_pcm_main_memory:
                self.board.memory.set_interface_active(True)
            self.pmu.set_mode(ProcessorPMU.MODE_ACTIVE)
            budget = self.config.budget
            self.timer_wake_component.set_power(budget.timer_wakeup_monitor_w)
            self.chipset.monitor_at_fast_clock()
            self.chipset.resume_proc_link()
            # VR quiescents are on while awake in every configuration: the
            # techniques only remove them across the idle window.
            self.aon_vr_component.set_power(budget.aon_vr_quiescent_w)
            self.retention_vr_component.set_power(budget.sram_retention_vr_quiescent_w)
            self.cke_component.set_power(
                0.0 if self.board.is_pcm_main_memory else budget.cke_drive_w
            )
            # The S/R SRAMs are used only across the idle window; while the
            # platform is awake they are power-gated in every configuration,
            # which keeps Active power identical between baseline and CTX
            # modes (their contents have served their purpose by now).
            self.sr_srams.power_off()
            if self.chipset_context_sram is not None:
                self.chipset_context_sram.power_off()
            self.flow_component.set_power(0.0)
        self._record_state()

    def apply_drips_state(self) -> None:
        """Set every component to its DRIPS/ODRIPS level.

        The flows call this once their side effects (context saved, DRAM
        in self-refresh, crystal off, FET open, ...) are done; this method
        only settles the *power levels* that persist through the idle
        residency.
        """
        budget = self.config.budget
        techniques = self.techniques
        with self.tree.batch():
            self.state = PlatformState.DRIPS
            self.flow_component.set_power(0.0)
            # compute side fully off
            self.compute.stop()
            self.uncore_component.set_power(0.0)
            self.dom_compute.power_off()
            if self.rail_compute.regulator.enabled:
                self.rail_compute.turn_off()
            # PMU gating depth
            if techniques.aon_io_gate:
                self.pmu.set_mode(ProcessorPMU.MODE_DEEP)
            else:
                self.pmu.set_mode(ProcessorPMU.MODE_DRIPS)
            # wake monitoring location
            if techniques.wake_up_off:
                self.timer_wake_component.set_power(0.0)
                self.chipset.monitor_at_slow_clock()
            else:
                self.timer_wake_component.set_power(budget.timer_wakeup_monitor_w)
                self.chipset.monitor_at_fast_clock()
            # chipset processor-facing links
            if techniques.aon_io_gate:
                self.chipset.idle_proc_link()
            else:
                self.chipset.resume_proc_link()
            # CKE drive: needed for DRAM self-refresh, obsolete with PCM
            if self.board.is_pcm_main_memory:
                self.cke_component.set_power(0.0)
                self.board.memory.set_interface_active(False)
            else:
                self.cke_component.set_power(budget.cke_drive_w)
            # AON-rail VR: off only when all three techniques strip the rail
            if techniques.is_full_odrips:
                self.aon_vr_component.set_power(0.0)
            else:
                self.aon_vr_component.set_power(budget.aon_vr_quiescent_w)
            # retention-rail VR: off whenever the context left the S/R SRAMs
            if techniques.ctx_offloaded:
                self.retention_vr_component.set_power(0.0)
            else:
                self.retention_vr_component.set_power(
                    budget.sram_retention_vr_quiescent_w
                )
        self._record_state()

    def set_transition_state(self, state: PlatformState) -> None:
        """Mark the platform as executing a flow (Entry or Exit)."""
        if not state.in_transition:
            raise FlowError(f"{state} is not a transition state")
        self.state = state
        self._record_state()

    def _record_state(self) -> None:
        self.trace.record(self.kernel.now, STATE_CHANNEL, self.state.value)

    def record_wake(self, event) -> None:
        self.wake_log.append(event)
        self.trace.record(self.kernel.now, WAKE_CHANNEL, str(event))

    # ---------------------------------------------------------- flow power helper

    def set_total_power(self, watts: float) -> None:
        """Pin total platform power to ``watts`` using the flow component.

        The flows use this to hold the measured average power levels of
        the Entry/Exit states (Sec. 7) while their side effects execute.
        """
        base = self.tree.platform_power() - self.flow_component.power_watts
        self.flow_component.set_power(max(0.0, watts - base))

    # ---------------------------------------------------- lint introspection

    def fsm_description(self) -> Dict[str, object]:
        """Declared platform-state machine, for the static model verifier."""
        from repro.io.wake import WakeEventType
        from repro.system.states import FSM_ACTIVE, FSM_INITIAL, FSM_TRANSITIONS, FSM_WAKE_RECEPTIVE

        return {
            "states": tuple(PlatformState),
            "initial": FSM_INITIAL,
            "active": FSM_ACTIVE,
            "transitions": FSM_TRANSITIONS,
            "wake_receptive": FSM_WAKE_RECEPTIVE,
            "wake_event_types": tuple(WakeEventType),
        }

    def flow_descriptions(self) -> Dict[str, tuple]:
        """Declared entry/exit flow specs, for the static model verifier."""
        from repro.system.flows import ENTRY_FLOW_SPEC, EXIT_FLOW_SPEC

        return {"entry": ENTRY_FLOW_SPEC, "exit": EXIT_FLOW_SPEC}

    def observability_description(self) -> Dict[str, object]:
        """Declared flow-step span labels, for the span-discipline rule."""
        from repro.system.flows import FLOW_SPAN_TABLE

        return {
            "flow_span_labels": {
                name: tuple(labels) for name, labels in FLOW_SPAN_TABLE.items()
            }
        }

    def safety_description(self) -> Dict[str, object]:
        """Declared safety couplings, for the model checker (repro.check)."""
        from repro.system.states import CLOCK_REQUIREMENTS, WAKE_SOURCE_DOMAINS

        return {
            "clock_requirements": tuple(CLOCK_REQUIREMENTS),
            "wake_sources": tuple(WAKE_SOURCE_DOMAINS),
        }

    def macro_description(self) -> Dict[str, object]:
        """Declared macro-stepping energy-ledger coverage (lint rule M308).

        The macro executor replays compiled cycles per rail channel; a
        rail powered in the model but missing here would silently drop
        energy from compiled segments, so both the runtime balance check
        and the lint rule compare against this declaration.
        """
        from repro.sim.macro import MACRO_LEDGER_RAILS

        return {"ledger_rails": MACRO_LEDGER_RAILS}

    def budget_description(self) -> Dict[str, object]:
        """Declared quantitative budgets, for the priced-timed analysis.

        Wake-latency budgets, residency guarantees, paper break-even
        constants and the per-cycle energy golden for every deep power
        state, assembled by :mod:`repro.system.budget` from the system,
        chipset and power-tree layers.  Consumed by rules C601-C605 of
        ``repro check --budgets``.
        """
        from repro.system.budget import platform_budget_description

        return platform_budget_description(self)

    # ------------------------------------------------------------------ queries

    def platform_power(self) -> float:
        """Instantaneous battery-side platform power in watts."""
        return self.tree.platform_power()

    def power_breakdown(self) -> Dict[str, float]:
        """Per-component battery-side watts (Fig. 1(b) view)."""
        return self.tree.attributed_breakdown()

    def next_timer_target(self, delay_seconds: float) -> int:
        """TSC count ``delay_seconds`` from now (for scheduling wakes)."""
        if delay_seconds <= 0:
            raise ConfigError("wake delay must be positive")
        now_count = self.pmu.tsc.read(self.kernel.now)
        cycles = round(delay_seconds * self.board.fast_clock.effective_hz)
        return now_count + cycles

    def set_core_frequency(self, freq_ghz: float) -> None:
        """Fig. 6(b) lever."""
        self.compute.set_frequency(freq_ghz)

    def set_dram_frequency(self, rate_hz: float) -> None:
        """Fig. 6(c) lever (no-op for PCM main memory)."""
        if hasattr(self.board.memory, "set_frequency"):
            self.board.memory.set_frequency(rate_hz)
