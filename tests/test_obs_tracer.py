"""Unit tests for the repro.obs tracer, metrics and process-wide hook."""

import pytest

from repro.errors import MeasurementError
from repro.obs.hook import active, observe
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import FLOW_STEP_TRACK, MEASURE_TRACK, Tracer


class TestSpans:
    def test_begin_end_roundtrip(self):
        tracer = Tracer()
        span = tracer.begin("entry:llc-flush", 100)
        assert not span.closed
        assert span.duration_ps == 0
        assert tracer.open_spans() == [span]
        tracer.end(span, 350)
        assert span.closed
        assert span.duration_ps == 250
        assert tracer.open_spans() == []
        assert tracer.closed_spans() == [span]

    def test_default_track_is_flow_steps(self):
        tracer = Tracer()
        span = tracer.begin("x", 0)
        assert span.track == FLOW_STEP_TRACK

    def test_closed_spans_filters_by_track(self):
        tracer = Tracer()
        a = tracer.begin("a", 0)
        b = tracer.begin("b", 0, track=MEASURE_TRACK)
        tracer.end(a, 10)
        tracer.end(b, 10)
        assert tracer.closed_spans(MEASURE_TRACK) == [b]
        assert tracer.closed_spans() == [a, b]

    def test_double_close_rejected(self):
        tracer = Tracer()
        span = tracer.begin("x", 0)
        tracer.end(span, 5)
        with pytest.raises(ValueError, match="already closed"):
            tracer.end(span, 10)

    def test_backwards_close_rejected(self):
        tracer = Tracer()
        span = tracer.begin("x", 100)
        with pytest.raises(ValueError, match="before it opened"):
            tracer.end(span, 99)

    def test_span_context_manager(self):
        tracer = Tracer()
        with tracer.span("analyzer:platform", 10, 90) as span:
            assert not span.closed
        assert span.closed
        assert span.start_ps == 10 and span.end_ps == 90
        assert span.track == MEASURE_TRACK


class TestInstrumentationCallbacks:
    def test_kernel_event_records_instant_and_counter(self):
        tracer = Tracer()
        tracer.kernel_event("timer-fire", 42)
        tracer.kernel_event("timer-fire", 84)
        tracer.kernel_event("", 99)  # unlabeled events count under 'anon'
        names = [instant.name for instant in tracer.instants]
        assert names == ["timer-fire", "timer-fire", "anon"]
        assert tracer.metrics.counter_value("kernel.events:timer-fire") == 2
        assert tracer.metrics.counter_value("kernel.events:anon") == 1

    def test_pmu_transition(self):
        tracer = Tracer()
        tracer.pmu_transition("active", "drips", 1000)
        assert tracer.instants[0].name == "pmu:active->drips"
        assert tracer.metrics.counter_value("pmu.transitions:drips") == 1

    def test_wake_delivered_keeps_detail(self):
        tracer = Tracer()
        tracer.wake_delivered("timer", 7, detail="rtc")
        assert tracer.instants[0].args == {"detail": "rtc"}
        assert tracer.metrics.counter_value("wake.delivered:timer") == 1

    def test_set_window(self):
        tracer = Tracer()
        assert tracer.window_ps is None
        tracer.set_window(5, 105)
        assert tracer.window_ps == (5, 105)


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        metrics = MetricsRegistry()
        metrics.counter("hits").inc()
        metrics.counter("hits").inc(3)
        assert metrics.counter_value("hits") == 4
        assert metrics.counter_value("absent") == 0

    def test_counter_rejects_negative_increment(self):
        metrics = MetricsRegistry()
        with pytest.raises(MeasurementError):
            metrics.counter("hits").inc(-1)

    def test_histogram_stats(self):
        metrics = MetricsRegistry()
        hist = metrics.histogram("latency_us")
        for value in (3.0, 1.0, 2.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.mean == pytest.approx(2.0)
        assert hist.percentile(0.0) == 1.0
        assert hist.percentile(0.5) == 2.0
        assert hist.percentile(1.0) == 3.0

    def test_snapshot_shape(self):
        metrics = MetricsRegistry()
        metrics.counter("c").inc()
        metrics.gauge("g").set(2.5)
        metrics.histogram("h").observe(1.0)
        snapshot = metrics.snapshot()
        assert snapshot["counters"] == {"c": 1}
        assert snapshot["gauges"] == {"g": 2.5}
        assert snapshot["histograms"]["h"]["count"] == 1


class TestProcessWideHook:
    def test_install_uninstall(self):
        assert active().tracer is None
        tracer = Tracer()
        with observe(tracer=tracer):
            assert active().tracer is tracer
        assert active().tracer is None

    def test_observe_restores_disabled_state(self):
        before = active()
        with observe(tracer=Tracer()):
            assert active() is not before
        assert active() is before

    def test_observe_uninstalls_on_error(self):
        with pytest.raises(RuntimeError):
            with observe(tracer=Tracer()):
                raise RuntimeError("boom")
        assert active().tracer is None

    def test_install_accepts_existing_tracer(self):
        mine = Tracer()
        with observe(tracer=mine) as observation:
            assert observation.tracer is mine
            assert active() is observation
