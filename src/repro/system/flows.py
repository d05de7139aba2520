"""DRIPS / ODRIPS entry and exit flows (Sec. 2.2 + Secs. 4-6).

The entry flow executes the paper's six actions — LLC flush, compute-VR
off, context save, DRAM self-refresh, clock shutdown, VR/PMU gating —
with the ODRIPS extensions spliced in at the steps the paper describes:
timer migration before the clock shutdown (Sec. 4.1.2), IO handoff and
FET gating at the end (Sec. 5.2), and the MEE context transfer replacing
the SRAM save (Sec. 6.2).

Flows run as kernel processes; durations that the mechanics determine
(LLC flush bandwidth, 32 kHz edge waits, MEE bulk-transfer latency) come
from the models, while overall Entry/Exit power levels are held at the
measured averages of Sec. 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.techniques import ContextStore
from repro.errors import FlowError
from repro.io.pml import PMLMessage
from repro.io.wake import WakeEvent, WakeEventType
from repro.obs.tracer import EDGE_FOLLOWUP, EDGE_TRIGGER, FLOW_TRACK
from repro.sim.process import Process
from repro.system.states import FLOW_CHANNEL, PlatformState


@dataclass(frozen=True)
class FlowStepSpec:
    """Declared shape of one flow step (introspection hook for repro.lint).

    ``requires`` names power domains that must still be delivering when
    the step runs; ``gates_off``/``gates_on`` name domains the step
    power-gates or restores.  The static model verifier checks that every
    named domain exists and that no step runs against a domain an
    earlier step already gated off.

    The remaining fields drive the exhaustive model checker
    (:mod:`repro.check`): ``clocks_off``/``clocks_on`` name clock sources
    the step gates or restores, and ``halts``/``resumes`` name domains
    the step quiesces or brings back to execution.  A domain that is
    powered and not halted is *live*; the checker's clock-coupling
    invariant demands that a live domain's clock source is never gated.
    """

    label: str
    requires: Tuple[str, ...] = ()
    gates_off: Tuple[str, ...] = ()
    gates_on: Tuple[str, ...] = ()
    clocks_off: Tuple[str, ...] = ()
    clocks_on: Tuple[str, ...] = ()
    halts: Tuple[str, ...] = ()
    resumes: Tuple[str, ...] = ()


#: Declarative mirror of :meth:`FlowController._entry_flow` (Sec. 2.2
#: order with the ODRIPS insertions); labels match the ``_step`` calls.
ENTRY_FLOW_SPEC: Tuple[FlowStepSpec, ...] = (
    FlowStepSpec("entry:compute-quiesce", requires=("proc.compute",), halts=("proc.compute",)),
    FlowStepSpec("entry:llc-flush", requires=("memory",)),
    FlowStepSpec("entry:context-save", requires=("memory",)),
    FlowStepSpec("entry:dram-self-refresh", requires=("memory",)),
    FlowStepSpec("entry:clock-shutdown", clocks_off=("clk-24mhz",)),
    FlowStepSpec("entry:io-handoff", requires=("proc.aon_io",), gates_off=("proc.aon_io",)),
    FlowStepSpec("entry:drips", gates_off=("proc.compute",)),
)

#: Declarative mirror of :meth:`FlowController._exit_flow`.
EXIT_FLOW_SPEC: Tuple[FlowStepSpec, ...] = (
    FlowStepSpec("exit:wake"),
    FlowStepSpec("exit:xtal-restart", clocks_on=("clk-24mhz",)),
    FlowStepSpec("exit:io-restore", gates_on=("proc.aon_io",)),
    FlowStepSpec("exit:context-restore", requires=("memory",)),
    FlowStepSpec("exit:vr-ramp", gates_on=("proc.compute",)),
    FlowStepSpec("exit:active", requires=("proc.compute",), resumes=("proc.compute",)),
)

#: Span labels each instrumented flow opens (and closes) through
#: :meth:`FlowController._step`, declared as explicit literals so the
#: span-discipline lint rule (M306) checks them against the flow specs
#: instead of a tautological derivation.
FLOW_SPAN_TABLE: Dict[str, Tuple[str, ...]] = {
    "entry": (
        "entry:compute-quiesce",
        "entry:llc-flush",
        "entry:context-save",
        "entry:dram-self-refresh",
        "entry:clock-shutdown",
        "entry:io-handoff",
        "entry:drips",
    ),
    "exit": (
        "exit:wake",
        "exit:xtal-restart",
        "exit:io-restore",
        "exit:context-restore",
        "exit:vr-ramp",
        "exit:active",
    ),
}


@dataclass
class FlowStats:
    """Measured flow latencies (for the Sec. 6.3 / Sec. 8 latency checks)."""

    entry_latencies_ps: List[int] = field(default_factory=list)
    exit_latencies_ps: List[int] = field(default_factory=list)
    ctx_save_latencies_ps: List[int] = field(default_factory=list)
    ctx_restore_latencies_ps: List[int] = field(default_factory=list)

    def last_entry_us(self) -> float:
        return self.entry_latencies_ps[-1] / 1e6 if self.entry_latencies_ps else 0.0

    def last_exit_us(self) -> float:
        return self.exit_latencies_ps[-1] / 1e6 if self.exit_latencies_ps else 0.0


class FlowController:
    """Sequences the platform through ENTRY -> DRIPS -> EXIT -> ACTIVE."""

    #: On-chip S/R SRAM save/restore time in the baseline flow.
    SRAM_SAVE_PS = 2_000_000        # 2 us
    #: Chipset-SRAM context transfer bandwidth (Sec. 6.1 alternative 2).
    CHIPSET_SRAM_BANDWIDTH = 4.0e9  # bytes/s over the internal link

    def __init__(self, platform) -> None:
        self.platform = platform
        self.stats = FlowStats()
        self._active_callback: Optional[Callable[[WakeEvent], None]] = None
        self._in_flow = False
        self._saved_sa_blob: Optional[bytes] = None
        self._saved_compute_blob: Optional[bytes] = None
        #: Tracer the platform was built under (None = uninstrumented).
        self.obs = getattr(platform, "obs", None)
        self._step_span = None
        self._flow_span = None
        #: Wake event of the current standby cycle (causal root for the
        #: exit flow it triggers and the entry flow that closes the cycle).
        self._last_wake_event: Optional[WakeEvent] = None
        platform.pmu.set_wake_callback(self._on_pmu_timer_wake)
        platform.chipset.wake_hub.set_wake_callback(self._on_hub_wake)

    # --- wiring ---------------------------------------------------------------

    def set_active_callback(self, callback: Callable[[WakeEvent], None]) -> None:
        """``callback(event)`` fires when an exit flow reaches Active."""
        self._active_callback = callback

    def _memory_write_bandwidth(self) -> float:
        """Sequential write bandwidth of the main memory device."""
        memory = self.platform.board.memory
        if hasattr(memory, "bandwidth_bytes_per_s"):
            return memory.bandwidth_bytes_per_s()
        return memory.write_bandwidth_bytes_per_s

    def _batched(self, body):
        """Run each segment of the flow generator ``body`` in one tree batch.

        A segment (the code between two yields) runs at one simulated
        instant, so the power tree evaluates once at its end instead of
        at every component change inside it.  The exit flow's last
        segment also runs the active callback, where the macro engine
        may warp the clock; the batch then evaluates at the warped
        instant, the first one at which the new levels hold.
        """
        tree = self.platform.tree
        while True:
            with tree.batch():
                try:
                    delay = next(body)
                except StopIteration:
                    return
            yield delay

    def _step(self, label: str) -> None:
        """Log a flow step on the trace (tests assert the Sec. 2.2 order).

        With a tracer attached, each step closes the previous step's span
        and opens its own — flow steps tile the flow, so one span per
        ``FlowStepSpec`` falls out of the label sequence.
        """
        self.platform.trace.record(self.platform.kernel.now, FLOW_CHANNEL, label)
        obs = self.obs
        if obs is not None:
            now = self.platform.kernel.now
            if self._step_span is not None:
                obs.end(self._step_span, now)
            self._step_span = obs.begin(label, now)

    def _flow_begin(
        self, name: str, cause: Optional[WakeEvent] = None, role: str = EDGE_TRIGGER
    ) -> None:
        """Open the whole-flow span (no-op without a tracer).

        ``cause`` threads the causal edge: the wake event that triggered
        an exit flow (``EDGE_TRIGGER``) or whose standby cycle the next
        entry flow closes (``EDGE_FOLLOWUP``).
        """
        obs = self.obs
        if obs is not None:
            self._flow_span = obs.begin(
                name, self.platform.kernel.now, track=FLOW_TRACK
            )
            if cause is not None:
                obs.flow_rooted(
                    self._flow_span,
                    cause.event_type.value,
                    cause.time_ps,
                    detail=cause.detail,
                    role=role,
                )

    def _flow_end(self) -> None:
        """Close the trailing step span and the whole-flow span."""
        obs = self.obs
        if obs is None:
            return
        now = self.platform.kernel.now
        if self._step_span is not None:
            obs.end(self._step_span, now)
            self._step_span = None
        if self._flow_span is not None:
            obs.end(self._flow_span, now)
            self._flow_span = None

    # --- entry ------------------------------------------------------------------

    def request_drips(self) -> None:
        """Begin the entry flow.  A timer event must be scheduled first."""
        p = self.platform
        if p.state is not PlatformState.ACTIVE:
            raise FlowError(f"entry requested from state {p.state}")
        if p.pmu.wake_target is None:
            raise FlowError("no timer event scheduled; refusing to enter DRIPS")
        if self._in_flow:
            raise FlowError("a flow is already in progress")
        self._in_flow = True
        Process(p.kernel, self._batched(self._entry_flow()), name="drips-entry")

    def _entry_flow(self):
        p = self.platform
        trans = p.config.transitions
        techniques = p.techniques
        t0 = p.kernel.now
        self._flow_begin("drips-entry", cause=self._last_wake_event, role=EDGE_FOLLOWUP)
        p.set_transition_state(PlatformState.ENTRY)

        # compute domains quiesce first: the cores entered their own idle
        # states before the package flow begins (Sec. 2.2), so the whole
        # entry flow runs at the measured Entry power level
        p.compute.stop()
        p.uncore_component.set_power(0.0)
        p.set_total_power(trans.entry_power_watts)
        self._step("entry:compute-quiesce")

        # (1) flush the LLC into DRAM
        self._step("entry:llc-flush")
        p.llc.mark_typical_dirty()
        flush_ps = p.llc.flush_latency_ps(self._memory_write_bandwidth())
        yield flush_ps
        p.llc.flush()
        p.llc.power_off()

        # (3) save the processor context
        self._step("entry:context-save")
        yield from self._save_context()

        # (4) DRAM into self-refresh via CKE (PCM needs none, Sec. 8.3)
        self._step("entry:dram-self-refresh")
        if not p.board.is_pcm_main_memory:
            p.memory_controller.enter_self_refresh()

        # pad the baseline portion of the flow to the measured entry latency
        p.set_total_power(trans.entry_power_watts)
        elapsed = p.kernel.now - t0
        if elapsed < trans.entry_latency_ps:
            yield trans.entry_latency_ps - elapsed

        # (5) clock shutdown; with WAKE-UP-OFF the timer migrates first
        self._step("entry:clock-shutdown")
        if techniques.wake_up_off:
            yield from self._migrate_timer()

        # (6) IO handoff + FET gating (AON-IO-GATE), then PMU gating
        if techniques.aon_io_gate:
            self._step("entry:io-handoff")
            yield from self._handoff_ios()

        # settle the DRIPS power levels and arm the wake machinery
        wake_target = p.pmu.wake_target
        self._step("entry:drips")
        p.apply_drips_state()
        if techniques.wake_up_off:
            p.chipset.wake_hub.take_ownership(wake_target)
        else:
            p.pmu.arm_baseline_monitor()
        self.stats.entry_latencies_ps.append(p.kernel.now - t0)
        self._in_flow = False
        self._flow_end()
        if self.obs is not None:
            self.obs.metrics.histogram("flow.entry_latency_us").observe(
                (p.kernel.now - t0) / 1e6
            )

    def _save_context(self):
        p = self.platform
        trans = p.config.transitions
        store = p.techniques.context_store
        self._saved_sa_blob = p.system_agent.capture_context()
        self._saved_compute_blob = p.compute.capture_context()
        sa_blob, compute_blob = self._saved_sa_blob, self._saved_compute_blob

        if store is ContextStore.PROCESSOR_SRAM:
            p.sr_srams.power_on()
            p.sr_srams.save_sa_context(sa_blob)
            p.sr_srams.save_compute_context(compute_blob)
            yield self.SRAM_SAVE_PS
            p.sr_srams.enter_retention()
            return

        if store in (ContextStore.DRAM_SGX, ContextStore.PCM):
            if p.context_allocator is not None:
                # PCM: rotate the context through the region's slots so no
                # cell takes every cycle's write (wear leveling)
                offset = p.context_allocator.allocate()
                base = p.context_region.base + offset
                p.system_agent.configure_fsms(
                    base, base + p.config.context.system_agent_bytes
                )
            p.set_total_power(trans.ctx_save_power_w)
            t0 = p.kernel.now
            latency = p.system_agent.sa_fsm_flush(sa_blob)
            latency += p.system_agent.llc_fsm_flush(compute_blob)
            yield latency
            self.stats.ctx_save_latencies_ps.append(p.kernel.now - t0)
            # bootstrap state into the Boot SRAM, then kill the engines
            assert p.mee is not None
            mee_state = p.mee.power_off()
            p.boot_sram.store(
                p.pmu.export_state(), p.memory_controller.export_state(), mee_state
            )
            p.memory_controller.power_off()
            p.sr_srams.power_off()
            return

        if store is ContextStore.CHIPSET_SRAM:
            sram = p.chipset_context_sram
            assert sram is not None
            sram.power_on()
            sram.write(0, sa_blob)
            sram.write(len(sa_blob), compute_blob)
            total = len(sa_blob) + len(compute_blob)
            yield round(total / self.CHIPSET_SRAM_BANDWIDTH * 1e12)
            sram.enter_retention()
            p.boot_sram.store(
                p.pmu.export_state(), p.memory_controller.export_state(), None
            )
            p.sr_srams.power_off()
            return

        if store is ContextStore.EMRAM:
            emram = p.emram
            assert emram is not None
            t0 = p.kernel.now
            latency = emram.write(0, sa_blob)
            latency += emram.write(len(sa_blob), compute_blob)
            yield latency
            self.stats.ctx_save_latencies_ps.append(p.kernel.now - t0)
            emram.power_off()  # non-volatile: supply can go away entirely
            p.boot_sram.store(
                p.pmu.export_state(), p.memory_controller.export_state(), None
            )
            p.sr_srams.power_off()
            return

        raise FlowError(f"unhandled context store {store}")

    def _migrate_timer(self):
        """Sec. 4.1.2: copy the main timer to the chipset's fast timer,
        switch to the slow timer on a 32 kHz edge, kill the fast crystal."""
        p = self.platform
        trans = p.config.transitions
        message = PMLMessage("timer-value", payload_words=2)
        compensation = p.pml.to_chipset.transfer_cycles(message)
        value = p.pmu.tsc.freeze(p.kernel.now)
        yield p.pml.to_chipset.transfer_latency_ps(message)
        p.chipset.dual_timer.load_fast(p.kernel.now, value, compensation)
        # wait for the rising edge of the 32 kHz clock (Fig. 3(b))
        p.set_total_power(trans.timer_migration_entry_power_w)
        edge = p.chipset.dual_timer.next_slow_edge(p.kernel.now)
        yield edge - p.kernel.now
        p.chipset.dual_timer.switch_to_slow(p.kernel.now)
        # "At this point, the 24MHz clock can be gated and the crystal
        # oscillator can be turned-off."
        p.board.fast_xtal.disable(p.kernel.now)

    def _handoff_ios(self):
        """Sec. 5.2: quiesce the AON IOs, hand responsibility to the
        chipset, open the on-board FET."""
        p = self.platform
        trans = p.config.transitions
        p.set_total_power(trans.io_handoff_entry_power_w)
        p.aon_io_bank.quiesce()
        yield trans.io_handoff_entry_ps
        p.chipset.arm_thermal_monitor()
        p.chipset.drive_fet(False)
        p.dom_aon_io.power_off()

    # --- shallow idle (C2..C8, no DRIPS machinery) ---------------------------------

    def request_shallow_idle(self, state, wake_delay_s: float) -> None:
        """Enter an intermediate C-state for a short idle period.

        Shallow states keep every AON structure powered and skip the
        DRIPS machinery entirely: no context save, no timer migration, no
        IO gating — just a reduced power level and the state's exit
        latency.  This is what the PMU picks when LTR/TNTE forbid DRIPS
        (Sec. 2.2); the runner uses it for idles below the break-even.
        """
        from repro.processor.cstates import (
            CSTATE_EXIT_LATENCY_PS,
            CSTATE_POWER_WATTS,
            CState,
        )

        p = self.platform
        if p.state is not PlatformState.ACTIVE:
            raise FlowError(f"shallow idle requested from state {p.state}")
        if state in (CState.C0, CState.C10):
            raise FlowError("shallow idle is for intermediate C-states only")
        if wake_delay_s <= 0:
            raise FlowError("wake delay must be positive")
        if self._in_flow:
            raise FlowError("a flow is already in progress")
        self._in_flow = True
        Process(
            p.kernel,
            self._batched(
                self._shallow_idle_flow(
                    state,
                    CSTATE_POWER_WATTS[state],
                    CSTATE_EXIT_LATENCY_PS[state],
                    wake_delay_s,
                )
            ),
            name=f"shallow-{state.name}",
        )

    def _shallow_idle_flow(self, state, power_watts, exit_latency_ps, wake_delay_s):
        from repro.processor.cstates import CState

        p = self.platform
        self._flow_begin(f"shallow-{state.name}")
        self._step(f"shallow:{state.name}")
        p.set_transition_state(PlatformState.ENTRY)
        p.compute.stop()
        p.uncore_component.set_power(0.0)
        # C6 and deeper opportunistically put DRAM into self-refresh
        if state >= CState.C6 and not p.board.is_pcm_main_memory:
            p.memory_controller.enter_self_refresh()
        # shallow entries are fast: a few microseconds of clock/power gating
        yield 5_000_000
        p.state = PlatformState.DRIPS  # residency-wise it is "idle"
        p._record_state()
        p.set_total_power(power_watts)
        yield round(wake_delay_s * 1e12)
        p.set_transition_state(PlatformState.EXIT)
        p.set_total_power(max(power_watts, 0.3))
        yield exit_latency_ps
        self._step("shallow:active")
        p.apply_active_state()
        self._in_flow = False
        self._flow_end()
        if self._active_callback is not None:
            self._active_callback(
                WakeEvent(WakeEventType.TIMER, p.kernel.now, detail=f"shallow-{state.name}")
            )

    # --- wake handling -----------------------------------------------------------

    def _on_pmu_timer_wake(self, target: int) -> None:
        event = WakeEvent(WakeEventType.TIMER, self.platform.kernel.now, timer_target=target)
        self._begin_exit(event)

    def _on_hub_wake(self, event: WakeEvent) -> None:
        self._begin_exit(event)

    def external_wake(self, event_type: WakeEventType, detail: str = "") -> None:
        """Deliver an external trigger (network packet, user input)."""
        p = self.platform
        if p.state is not PlatformState.DRIPS:
            return  # platform is awake or transitioning; nothing to do
        if p.techniques.wake_up_off:
            p.chipset.wake_hub.external_wake(event_type, detail)
        else:
            p.pmu.disarm_monitor()
            self._begin_exit(WakeEvent(event_type, p.kernel.now, detail=detail))

    def _begin_exit(self, event: WakeEvent) -> None:
        p = self.platform
        if p.state is not PlatformState.DRIPS:
            raise FlowError(f"wake event in state {p.state}")
        if self._in_flow:
            raise FlowError("a flow is already in progress")
        self._in_flow = True
        self._last_wake_event = event
        p.record_wake(event)
        Process(p.kernel, self._batched(self._exit_flow(event)), name="drips-exit")

    def _exit_flow(self, event: WakeEvent):
        p = self.platform
        trans = p.config.transitions
        techniques = p.techniques
        t0 = p.kernel.now
        self._flow_begin("drips-exit", cause=event)
        p.set_transition_state(PlatformState.EXIT)
        self._step("exit:wake")

        # ODRIPS: bring the fast clock back and restore the timer first
        if techniques.wake_up_off:
            self._step("exit:xtal-restart")
            p.board.fast_xtal.enable(p.kernel.now)
            yield p.board.fast_xtal.startup_time_ps
            edge = p.chipset.dual_timer.next_slow_edge(p.kernel.now)
            yield edge - p.kernel.now
            p.chipset.dual_timer.switch_to_fast(p.kernel.now)
            p.set_total_power(trans.timer_restore_exit_power_w)
            yield trans.timer_restore_exit_ps
            message = PMLMessage("timer-value", payload_words=2)
            compensation = p.pml.to_processor.transfer_cycles(message)
            restored = p.chipset.dual_timer.value_for_processor(
                p.kernel.now, compensation
            )
            p.pmu.tsc.thaw(p.kernel.now, restored)

        # ODRIPS: close the FET and re-initialize the AON IO bank
        if techniques.aon_io_gate:
            self._step("exit:io-restore")
            p.chipset.drive_fet(True)
            p.dom_aon_io.power_on()
            p.chipset.disarm_thermal_monitor()
            p.set_total_power(trans.io_restore_exit_power_w)
            yield trans.io_restore_exit_ps

        # context restore; baseline stores count toward the baseline budget
        self._step("exit:context-restore")
        baseline_consumed = yield from self._restore_context(trans)

        # baseline exit flow (VR ramp, SA/core un-gating, ...)
        self._step("exit:vr-ramp")
        p.set_total_power(trans.exit_power_watts)
        if baseline_consumed < trans.exit_latency_ps:
            yield trans.exit_latency_ps - baseline_consumed

        self._step("exit:active")
        p.apply_active_state()
        self.stats.exit_latencies_ps.append(p.kernel.now - t0)
        self._in_flow = False
        self._flow_end()
        if self.obs is not None:
            # the paper's wake-to-active latency (Sec. 6.3 / Sec. 8)
            self.obs.metrics.histogram("flow.exit_latency_us").observe(
                (p.kernel.now - t0) / 1e6
            )
        if self._active_callback is not None:
            self._active_callback(event)

    def _restore_context(self, trans):
        p = self.platform
        store = p.techniques.context_store
        sa_len = len(self._saved_sa_blob) if self._saved_sa_blob else 0
        compute_len = len(self._saved_compute_blob) if self._saved_compute_blob else 0
        if not sa_len or not compute_len:
            raise FlowError("exit flow with no saved context")
        baseline_consumed = 0

        if store is ContextStore.PROCESSOR_SRAM:
            p.memory_controller.exit_self_refresh()
            p.sr_srams.exit_retention()
            yield self.SRAM_SAVE_PS
            baseline_consumed = self.SRAM_SAVE_PS
            sa_blob = p.sr_srams.load_sa_context(sa_len)
            compute_blob = p.sr_srams.load_compute_context(compute_len)
        elif store in (ContextStore.DRAM_SGX, ContextStore.PCM):
            # Sec. 6.2 exit: Boot FSM restores PMU, MC, MEE; DRAM leaves
            # self-refresh; then the FSMs read the context back.
            p.set_total_power(trans.ctx_restore_power_w)
            yield trans.boot_fsm_restore_ps
            record = p.boot_sram.load()
            p.pmu.import_state(record["pmu"])
            p.memory_controller.power_on()
            p.memory_controller.import_state(record["controller"])
            assert p.mee is not None
            p.mee.power_on(record["mee"])
            if not p.board.is_pcm_main_memory:
                p.memory_controller.exit_self_refresh()
            t0 = p.kernel.now
            sa_blob, latency = p.system_agent.sa_fsm_restore(sa_len)
            compute_blob, more = p.system_agent.llc_fsm_restore(compute_len)
            yield latency + more
            self.stats.ctx_restore_latencies_ps.append(p.kernel.now - t0)
            p.sr_srams.power_on()
        elif store is ContextStore.CHIPSET_SRAM:
            p.memory_controller.exit_self_refresh()
            sram = p.chipset_context_sram
            assert sram is not None
            sram.exit_retention()
            total = sa_len + compute_len
            yield round(total / self.CHIPSET_SRAM_BANDWIDTH * 1e12)
            sa_blob = sram.read(0, sa_len)
            compute_blob = sram.read(sa_len, compute_len)
            record = p.boot_sram.load()
            p.pmu.import_state(record["pmu"])
            p.sr_srams.power_on()
        elif store is ContextStore.EMRAM:
            p.memory_controller.exit_self_refresh()
            emram = p.emram
            assert emram is not None
            emram.power_on()
            t0 = p.kernel.now
            sa_blob, latency = emram.read(0, sa_len)
            compute_blob, more = emram.read(sa_len, compute_len)
            yield latency + more
            self.stats.ctx_restore_latencies_ps.append(p.kernel.now - t0)
            record = p.boot_sram.load()
            p.pmu.import_state(record["pmu"])
            p.sr_srams.power_on()
        else:
            raise FlowError(f"unhandled context store {store}")

        # the restored context must match what was saved, bit for bit
        p.system_agent.verify_restored(sa_blob)
        p.compute.verify_restored(compute_blob)
        p.llc.power_on()
        return baseline_consumed
