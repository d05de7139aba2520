"""Tests for FlowController.external_wake paths and FlowStats latencies.

The paper's Sec. 5 wake-up-off design moves wake ownership into the
chipset hub; the baseline keeps it in the processor PMU.  Both arms of
``FlowController.external_wake`` must deliver an external event out of
DRIPS, and both must be a no-op when the platform is not in DRIPS.
"""

import pytest

from repro.core.techniques import TechniqueSet
from repro.io.wake import WakeEventType
from repro.obs.hook import observe
from repro.obs.tracer import Tracer
from repro.system.flows import FlowController, FlowStats
from repro.system.states import PlatformState

from _platform import build_platform


def enter_drips(techniques, idle_s=0.5):
    """Boot and run until the platform parks in DRIPS; return the rig."""
    platform = build_platform(techniques, small_context=True)
    flows = FlowController(platform)
    woke = []
    flows.set_active_callback(lambda event: woke.append(event))
    platform.boot()
    platform.pmu.schedule_timer_event(platform.next_timer_target(idle_s))
    flows.request_drips()
    platform.kernel.run(until_ps=platform.kernel.now + 10 * 10**9)
    assert platform.state is PlatformState.DRIPS
    return platform, flows, woke


class TestExternalWakePaths:
    def test_baseline_pmu_path(self):
        """Without wake-up-off the PMU monitor is disarmed directly."""
        platform, flows, woke = enter_drips(TechniqueSet.baseline())
        flows.external_wake(WakeEventType.NETWORK, detail="tcp-syn")
        platform.kernel.run(max_events=100_000)
        assert platform.state is PlatformState.ACTIVE
        assert woke and woke[0].event_type is WakeEventType.NETWORK
        assert woke[0].detail == "tcp-syn"
        assert flows.stats.exit_latencies_ps

    def test_wake_up_off_hub_path(self):
        """With wake-up-off the event routes through the chipset hub."""
        platform, flows, woke = enter_drips(TechniqueSet.wake_up_off_only())
        flows.external_wake(WakeEventType.USER_INPUT, detail="lid")
        platform.kernel.run(max_events=100_000)
        assert platform.state is PlatformState.ACTIVE
        assert woke and woke[0].event_type is WakeEventType.USER_INPUT
        assert any(
            event.event_type is WakeEventType.USER_INPUT
            for event in platform.chipset.wake_hub.history
        )

    def test_noop_when_not_in_drips(self):
        platform = build_platform(TechniqueSet.baseline(), small_context=True)
        flows = FlowController(platform)
        platform.boot()
        assert platform.state is PlatformState.ACTIVE
        flows.external_wake(WakeEventType.NETWORK)  # must not raise
        assert platform.state is PlatformState.ACTIVE
        assert not flows.stats.exit_latencies_ps

    def test_timer_still_wakes_after_ignored_external(self):
        """An external wake swallowed while ACTIVE must not break timers."""
        platform, flows, woke = enter_drips(TechniqueSet.baseline(), idle_s=0.05)
        flows.external_wake(WakeEventType.DEBUG)
        platform.kernel.run(max_events=100_000)
        assert platform.state is PlatformState.ACTIVE
        # second external wake arrives too late — platform already awake
        flows.external_wake(WakeEventType.DEBUG)
        assert platform.state is PlatformState.ACTIVE
        assert len(woke) == 1

    def test_observed_external_wake_closes_all_spans(self):
        """The external-wake exit path obeys span discipline too."""
        tracer = Tracer()
        with observe(tracer=tracer):
            platform, flows, _woke = enter_drips(TechniqueSet.odrips())
            flows.external_wake(WakeEventType.NETWORK, detail="push")
            platform.kernel.run(max_events=100_000)
        assert platform.state is PlatformState.ACTIVE
        assert tracer.open_spans() == []
        assert tracer.metrics.counter_value("wake.delivered:network") == 1
        assert tracer.metrics.histogram("flow.exit_latency_us").count == 1


class TestFlowStats:
    def test_empty_stats_report_zero(self):
        stats = FlowStats()
        assert stats.last_entry_us() == 0.0
        assert stats.last_exit_us() == 0.0

    def test_last_latency_is_most_recent(self):
        stats = FlowStats(
            entry_latencies_ps=[100_000_000, 200_000_000],
            exit_latencies_ps=[300_000_000],
        )
        assert stats.last_entry_us() == pytest.approx(200.0)
        assert stats.last_exit_us() == pytest.approx(300.0)

    def test_cycle_populates_both_latency_lists(self):
        platform, flows, _woke = enter_drips(TechniqueSet.baseline(), idle_s=0.05)
        platform.kernel.run(max_events=100_000)
        assert len(flows.stats.entry_latencies_ps) == 1
        assert len(flows.stats.exit_latencies_ps) == 1
        assert flows.stats.last_entry_us() > 0.0
        assert flows.stats.last_exit_us() > 0.0
