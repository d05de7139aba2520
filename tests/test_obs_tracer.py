"""Unit tests for the repro.obs tracer, metrics and process-wide hook."""

import math

import pytest

from repro.errors import MeasurementError
from repro.obs.hook import active, observe
from repro.obs.metrics import BoundedHistogram, MetricsRegistry
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
        assert isinstance(hist, BoundedHistogram)
        assert metrics.histogram("latency_us") is hist
        for value in (3.0, 1.0, 2.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 6.0
        assert hist.mean == pytest.approx(2.0)
        # bucket-approximate percentiles, clamped to the exact [min, max]
        bound = math.sqrt(hist.base) - 1.0
        assert 1.0 <= hist.percentile(0.0) <= 1.0 * (1.0 + bound)
        assert hist.percentile(0.5) == pytest.approx(2.0, rel=bound)
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


class TestBoundedHistogram:
    def test_count_sum_min_max_match_exact(self):
        """The bucketed aggregate keeps exact count/sum/min/max."""
        values = [0.003, 0.7, 1.0, 2.5, 14.0, 14.0, 311.0]
        hist = BoundedHistogram("t")
        total = 0.0
        for value in values:
            hist.observe(value)
            total += value
        assert hist.count == len(values)
        assert hist.total == total
        assert hist.mean == total / len(values)
        assert hist.min_value == min(values)
        assert hist.max_value == max(values)

    def test_negative_and_zero_values(self):
        hist = BoundedHistogram("t")
        for value in (-5.0, 0.0, 0.0, 3.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.zeros == 2
        assert hist.total == -2.0
        assert hist.min_value == -5.0
        assert hist.max_value == 3.0
        # ranks walk negatives, then the zero bucket, then positives
        assert hist.percentile(0.0) == pytest.approx(-5.0, rel=0.1)
        assert hist.percentile(0.5) == 0.0
        assert hist.percentile(1.0) == 3.0

    def test_percentile_empty_raises_typed_error(self):
        """A percentile of nothing is a question, not 0."""
        with pytest.raises(MeasurementError):
            BoundedHistogram("t").percentile(0.5)

    def test_percentile_bucket_error_bound(self):
        """p50 lands within the sqrt(base)-1 relative bound, in [min, max]."""
        values = [1.0 + 0.37 * i for i in range(101)]
        hist = BoundedHistogram("t")
        for value in values:
            hist.observe(value)
        p50_exact = sorted(values)[round(0.5 * (len(values) - 1))]
        p50 = hist.percentile(0.5)
        bound = math.sqrt(hist.base) - 1.0
        assert abs(p50 - p50_exact) / p50_exact <= bound + 1e-9
        assert hist.min_value <= p50 <= hist.max_value

    def test_non_finite_observation_raises(self):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(MeasurementError):
                BoundedHistogram("t").observe(value)


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
