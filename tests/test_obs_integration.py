"""Integration tests: instrumented seams, span discipline, cache purity.

Covers the two invariants the observability layer promises:

* every instrumented flow step opens *and closes* its span — a full
  ``request_drips`` -> wake round-trip leaves zero open spans;
* tracing is pure observation — cached measurements are byte-identical
  with and without a tracer installed.
"""

import json

import pytest

from repro.core.experiments import fig2_connected_standby
from repro.core.techniques import TechniqueSet
from repro.obs.metrics import BoundedHistogram
from repro.obs.hook import active, observe
from repro.obs.tracer import FLOW_STEP_TRACK, FLOW_TRACK, Tracer
from repro.perf import SimulationCache
from repro.perf.fingerprint import canonical
from repro.system.flows import FLOW_SPAN_TABLE, FlowController
from repro.system.states import PlatformState

from _platform import build_platform


def run_observed_cycle(techniques, idle_s=0.05):
    """One boot -> DRIPS -> timer-wake round trip under a tracer."""
    tracer = Tracer()
    with observe(tracer=tracer):
        platform = build_platform(techniques, small_context=True)
        flows = FlowController(platform)
        platform.boot()
        platform.pmu.schedule_timer_event(platform.next_timer_target(idle_s))
        flows.request_drips()
        platform.kernel.run(max_events=100_000)
    assert platform.state is PlatformState.ACTIVE
    return platform, flows, tracer


class TestSpanDiscipline:
    @pytest.mark.parametrize(
        "techniques",
        [TechniqueSet.baseline(), TechniqueSet.odrips()],
        ids=["baseline", "odrips"],
    )
    def test_round_trip_leaves_no_open_spans(self, techniques):
        _platform, _flows, tracer = run_observed_cycle(techniques)
        assert tracer.open_spans() == []

    def test_step_spans_follow_declared_order(self):
        """Executed steps appear in FLOW_SPAN_TABLE order, no repeats."""
        _platform, _flows, tracer = run_observed_cycle(TechniqueSet.odrips())
        names = [span.name for span in tracer.closed_spans(FLOW_STEP_TRACK)]
        executed_entry = [n for n in names if n.startswith("entry:")]
        executed_exit = [n for n in names if n.startswith("exit:")]
        declared_entry = [
            label for label in FLOW_SPAN_TABLE["entry"] if label in executed_entry
        ]
        declared_exit = [
            label for label in FLOW_SPAN_TABLE["exit"] if label in executed_exit
        ]
        assert executed_entry == declared_entry
        assert executed_exit == declared_exit

    def test_step_spans_tile_the_flow_span(self):
        """Step spans are contiguous and stay inside their flow span."""
        _platform, _flows, tracer = run_observed_cycle(TechniqueSet.baseline())
        for flow in tracer.closed_spans(FLOW_TRACK):
            inside = [
                span
                for span in tracer.closed_spans(FLOW_STEP_TRACK)
                if flow.start_ps <= span.start_ps and span.end_ps <= flow.end_ps
            ]
            assert inside, f"flow span {flow.name} contains no step spans"
            for earlier, later in zip(inside, inside[1:]):
                assert earlier.end_ps == later.start_ps

    def test_flow_latency_histograms_recorded(self):
        _platform, flows, tracer = run_observed_cycle(TechniqueSet.baseline())
        entry = tracer.metrics.histogram("flow.entry_latency_us")
        exit_ = tracer.metrics.histogram("flow.exit_latency_us")
        assert entry.count == len(flows.stats.entry_latencies_ps)
        assert exit_.count == len(flows.stats.exit_latencies_ps)
        # the latency histograms are bucketed, but the sum stays exact, so
        # a single observation round-trips through the mean
        assert isinstance(entry, BoundedHistogram)
        assert isinstance(exit_, BoundedHistogram)
        assert entry.mean == pytest.approx(flows.stats.last_entry_us())
        assert exit_.mean == pytest.approx(flows.stats.last_exit_us())


class TestInstrumentedSeams:
    def test_kernel_pmu_wake_counters_move(self):
        # odrips routes the timer wake through the chipset hub (Sec. 5),
        # so all three instrumented seams fire in one cycle
        platform, _flows, tracer = run_observed_cycle(TechniqueSet.odrips())
        counters = tracer.metrics.counters()
        kernel_total = sum(
            value for name, value in counters.items()
            if name.startswith("kernel.events:")
        )
        assert kernel_total == platform.kernel.events_fired
        assert any(name.startswith("pmu.transitions:") for name in counters)
        assert counters.get("wake.delivered:timer", 0) >= 1

    def test_platform_built_without_tracer_stays_dark(self):
        assert active().tracer is None
        platform = build_platform(TechniqueSet.baseline(), small_context=True)
        assert platform.obs is None
        assert platform.kernel.obs is None
        assert platform.pmu.obs is None
        assert platform.chipset.wake_hub.obs is None

    def test_uninstall_does_not_detach_built_platform(self):
        """Platforms keep the tracer they were constructed under."""
        tracer = Tracer()
        with observe(tracer=tracer):
            platform = build_platform(TechniqueSet.baseline(), small_context=True)
        assert active().tracer is None
        assert platform.obs is tracer

    def test_cache_hit_miss_counters(self):
        cache = SimulationCache()
        tracer = Tracer()
        with observe(tracer=tracer):
            fig2_connected_standby(cycles=1, cache=cache)
            fig2_connected_standby(cycles=1, cache=cache)
        counters = tracer.metrics.counters()
        assert counters["cache.miss"] == 1
        assert counters["cache.hit"] == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1


class TestObservationPurity:
    def test_measurement_identical_with_and_without_tracer(self):
        """Acceptance: results are byte-identical with the tracer on."""
        dark = fig2_connected_standby(cycles=1)
        with observe(tracer=Tracer()):
            lit = fig2_connected_standby(cycles=1)
        dark_bytes = json.dumps(canonical(vars(dark)), sort_keys=True)
        lit_bytes = json.dumps(canonical(vars(lit)), sort_keys=True)
        assert dark_bytes == lit_bytes

    def test_cache_key_ignores_tracer(self):
        """A dark run's cache entry must hit for a traced re-run."""
        cache = SimulationCache()
        dark = fig2_connected_standby(cycles=1, cache=cache)
        assert cache.stats.misses == 1
        with observe(tracer=Tracer()):
            lit = fig2_connected_standby(cycles=1, cache=cache)
        assert cache.stats.hits == 1
        assert json.dumps(canonical(vars(dark)), sort_keys=True) == json.dumps(
            canonical(vars(lit)), sort_keys=True
        )
