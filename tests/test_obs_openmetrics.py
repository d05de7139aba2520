"""Tests for repro.obs.openmetrics: exposition rendering + validation.

The exposition writer and the hand-rolled structural validator are
developed against each other: everything the writer emits must
round-trip through the validator cleanly, and the validator must reject
the classic exposition mistakes (missing ``# EOF``, counters without
``_total``, non-cumulative buckets, samples before their ``# TYPE``).
"""

from __future__ import annotations

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.openmetrics import (
    escape_label_value,
    render_openmetrics,
    sanitize_metric_name,
    validate_openmetrics,
    write_openmetrics,
)
from repro.obs.stream import TelemetryStream


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("kernel.events:timer-fire").inc()
    registry.counter("kernel.events:wake").inc()
    registry.counter("macro.steps").inc()
    registry.gauge("cache.hit_rate").set(0.75)
    exact = registry.histogram("flow.entry_latency_us")
    for value in (100.0, 200.0, 300.0):
        exact.observe(value)
    bounded = registry.histogram("cycle.duration_s", bounded=True)
    for value in (30.0, 30.5, 31.0):
        bounded.observe(value)
    return registry


class TestNames:
    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("cycle.duration_s") == "repro_cycle_duration_s"
        assert sanitize_metric_name("a b/c") == "repro_a_b_c"
        assert sanitize_metric_name("9lives") == "repro__9lives"
        assert sanitize_metric_name("") == "repro_unnamed"

    def test_escape_label_value(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'


class TestRendering:
    def test_round_trips_through_validator(self):
        text = render_openmetrics(_populated_registry())
        assert validate_openmetrics(text) == []
        assert text.endswith("# EOF\n")

    def test_counter_variants_fold_into_event_labels(self):
        text = render_openmetrics(_populated_registry())
        assert "# TYPE repro_kernel_events counter" in text
        assert 'repro_kernel_events_total{event="timer-fire"} 1' in text
        assert 'repro_kernel_events_total{event="wake"} 1' in text
        assert "repro_macro_steps_total 1" in text  # no variant: bare family

    def test_exact_histogram_becomes_summary(self):
        text = render_openmetrics(_populated_registry())
        assert "# TYPE repro_flow_entry_latency_us summary" in text
        assert 'repro_flow_entry_latency_us{quantile="0.5"} 200.0' in text
        assert "repro_flow_entry_latency_us_count 3" in text
        assert "repro_flow_entry_latency_us_sum 600.0" in text

    def test_bounded_histogram_becomes_histogram_family(self):
        text = render_openmetrics(_populated_registry())
        assert "# TYPE repro_cycle_duration_s histogram" in text
        assert 'repro_cycle_duration_s_bucket{le="+Inf"} 3' in text
        assert "repro_cycle_duration_s_count 3" in text

    def test_fingerprint_exemplar_on_inf_bucket(self):
        stream = TelemetryStream()
        stream.set_label("fingerprint", "abc123")
        stream.histogram("measure.wall_s").observe(0.5)
        text = render_openmetrics(None, stream)
        assert validate_openmetrics(text) == []
        assert (
            'repro_measure_wall_s_bucket{le="+Inf"} 1 '
            '# {fingerprint="abc123"} 0.5' in text
        )

    def test_heartbeats_become_source_labelled_gauges(self):
        stream = TelemetryStream()
        stream.set_label("experiment", "fig2")
        stream.heartbeat("runner", done=2, total=4)
        text = render_openmetrics(None, stream)
        assert validate_openmetrics(text) == []
        assert (
            'repro_heartbeat_frac{experiment="fig2",source="runner"} 0.5' in text
        )

    def test_empty_exposition_is_just_eof(self):
        text = render_openmetrics()
        assert text == "# EOF\n"
        assert validate_openmetrics(text) == []

    def test_write_openmetrics(self, tmp_path):
        target = write_openmetrics(tmp_path / "out" / "metrics.txt")
        assert target.read_text() == "# EOF\n"


class TestValidator:
    def test_missing_eof(self):
        problems = validate_openmetrics("# TYPE repro_x counter\nrepro_x_total 1\n")
        assert any("# EOF" in p for p in problems)

    def test_counter_sample_without_total_suffix(self):
        text = "# TYPE repro_x counter\nrepro_x 1\n# EOF"
        # "repro_x" resolves to the declared family but flunks the naming rule
        assert any("_total" in p for p in validate_openmetrics(text))

    def test_sample_before_type_declaration(self):
        text = "repro_x_total 1\n# TYPE repro_x counter\n# EOF"
        assert any("no preceding TYPE" in p for p in validate_openmetrics(text))

    def test_non_cumulative_buckets(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1.0"} 5\n'
            'repro_h_bucket{le="2.0"} 3\n'
            'repro_h_bucket{le="+Inf"} 5\n'
            "repro_h_count 5\n"
            "repro_h_sum 9.0\n"
            "# EOF"
        )
        assert any("not cumulative" in p for p in validate_openmetrics(text))

    def test_count_must_match_inf_bucket(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="+Inf"} 5\n'
            "repro_h_count 4\n"
            "repro_h_sum 9.0\n"
            "# EOF"
        )
        assert any("_count" in p for p in validate_openmetrics(text))

    def test_missing_inf_bucket_and_sum(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1.0"} 5\n'
            "repro_h_count 5\n"
            "# EOF"
        )
        problems = validate_openmetrics(text)
        assert any("+Inf" in p for p in problems)
        assert any("_sum" in p for p in problems)

    def test_blank_lines_and_duplicate_types_rejected(self):
        text = (
            "# TYPE repro_x counter\n"
            "\n"
            "# TYPE repro_x counter\n"
            "repro_x_total 1\n"
            "# EOF"
        )
        problems = validate_openmetrics(text)
        assert any("blank" in p for p in problems)
        assert any("duplicate TYPE" in p for p in problems)

    def test_unparseable_sample(self):
        text = "# TYPE repro_x counter\nrepro_x_total one\n# EOF"
        assert any("unparseable" in p for p in validate_openmetrics(text))


class TestLiveExposition:
    def test_observed_fig2_run_round_trips(self):
        """A real observed run's exposition validates cleanly."""
        from repro import obs
        stream = TelemetryStream()
        with obs.observe(stream=stream):
            session = obs.run_traced("fig2", cycles=2)
        text = render_openmetrics(session.tracer.metrics, stream)
        assert validate_openmetrics(text) == []
        assert "repro_heartbeat_done" in text
        assert "repro_cycle_duration_s_count" in text
