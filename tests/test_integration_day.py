"""A day-in-the-life integration test: everything composed at once.

One platform runs governed idles (shallow + DRIPS), external wakes, a
memory-DVFS governor, and context protection across many cycles, and
every accounting invariant must hold at the end — the closest thing to
the paper's week-on-the-bench soak test.
"""

import math

import pytest

from repro.core.techniques import TechniqueSet
from repro.io.wake import WakeEventType
from repro.measure.residency import integrate_joules, residency_report
from repro.memory.dvfs import MemoryDVFSGovernor
from repro.processor.cstates import CState
from repro.system.flows import FlowController
from repro.system.states import PlatformState
from repro.units import ms_to_ps

from _platform import build_platform


@pytest.fixture(scope="module")
def day_run():
    platform = build_platform(TechniqueSet.odrips(), small_context=True)
    flows = FlowController(platform)
    governor = MemoryDVFSGovernor(platform)
    log = {"cycles": 0, "wakes": []}

    # a repeating pattern: two long DRIPS idles, one shallow, one with an
    # external wake arriving mid-sleep
    PATTERN = ["drips", "drips", "shallow", "drips-network"]
    TOTAL = 12

    def next_phase(event=None):
        if event is not None:
            log["wakes"].append(event)
        if log["cycles"] >= TOTAL:
            return
        kind = PATTERN[log["cycles"] % len(PATTERN)]
        log["cycles"] += 1
        if kind == "shallow":
            flows.request_shallow_idle(CState.C8, wake_delay_s=0.004)
            return
        governor.enter_standby_mode()
        platform.pmu.schedule_timer_event(platform.next_timer_target(0.5))
        if kind == "drips-network":
            platform.kernel.schedule(
                ms_to_ps(250),
                lambda: flows.external_wake(WakeEventType.NETWORK, "push"),
                label="test:network",
            )
        flows.request_drips()

    def on_active(event):
        governor.enter_interactive_mode()
        next_phase(event)

    flows.set_active_callback(on_active)
    platform.boot()
    next_phase()
    platform.kernel.run(max_events=2_000_000)
    return platform, flows, governor, log


class TestDayInTheLife:
    def test_all_cycles_completed(self, day_run):
        platform, _flows, _governor, log = day_run
        assert log["cycles"] == 12
        assert platform.state is PlatformState.ACTIVE
        assert len(log["wakes"]) == 12

    def test_wake_source_mix(self, day_run):
        _platform, _flows, _governor, log = day_run
        kinds = [event.event_type for event in log["wakes"]]
        assert kinds.count(WakeEventType.NETWORK) == 3  # one per pattern rep
        assert kinds.count(WakeEventType.TIMER) == 9

    def test_energy_accounting_consistent(self, day_run):
        """Platform energy == the rails' energy == the residency energy."""
        platform, _flows, _governor, _log = day_run
        trace = platform.trace
        end = platform.kernel.now
        platform_energy = integrate_joules(trace, "platform", 0, end)
        rail_energy = math.fsum(
            integrate_joules(trace, f"rail:{rail.name}", 0, end)
            for rail in platform.tree.rails
        )
        residency_energy = math.fsum(residency_report(trace, 0, end).energy_j.values())
        assert platform_energy > 0
        assert platform_energy == pytest.approx(rail_energy, rel=1e-9)
        assert platform_energy == pytest.approx(residency_energy, rel=1e-9)

    def test_dvfs_governor_retrained_each_cycle(self, day_run):
        _platform, _flows, governor, _log = day_run
        assert governor.mode == "interactive"
        assert governor.retrain_count >= 18  # 9 DRIPS cycles x 2 retrains

    def test_context_round_trips_survived(self, day_run):
        platform, flows, _governor, _log = day_run
        # 9 DRIPS cycles -> 9 context saves/restores through the MEE
        assert len(flows.stats.ctx_save_latencies_ps) == 9
        assert len(flows.stats.ctx_restore_latencies_ps) == 9
        assert platform.mee.stats.integrity_violations == 0

    def test_timer_stayed_consistent(self, day_run):
        """After 9 freeze/handoff/restore round trips the TSC still
        tracks wall time."""
        platform, _flows, _governor, _log = day_run
        now = platform.kernel.now
        tsc = platform.pmu.tsc.read(now)
        wall = platform.board.fast_clock.effective_hz * (now / 1e12)
        assert abs(tsc - wall) < 2000  # compensation constants accumulate

    def test_residency_report_covers_all_states(self, day_run):
        from repro.measure.residency import residency_report

        platform, _flows, _governor, _log = day_run
        report = residency_report(platform.trace, 0, platform.kernel.now)
        assert report.residency("drips") > 0.9
        total = sum(report.residency(state) for state in report.dwell_ps)
        assert total == pytest.approx(1.0)
