"""Tests for repro.obs.stream: bounded aggregation, heartbeats, purity.

Covers the streaming-telemetry tentpole end to end — the
:class:`~repro.obs.metrics.BoundedHistogram` edge cases the ISSUE pins
(empty percentile, disjoint-range merges, negative/zero values, snapshot
round-trips), the rolling windows, the heartbeat files, the sweep
fan-out (serial and forced-parallel, the merge-correctness acceptance
anchor), and the bit-for-bit purity guarantee: simulation results are
identical with and without a stream installed.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.analysis.sweep import sweep
from repro.core.odrips import ODRIPSController
from repro.errors import MeasurementError
from repro.obs.hook import active, observe
from repro.obs.metrics import BoundedHistogram, Histogram, MetricsRegistry
from repro.obs.stream import (
    HEARTBEAT_SCHEMA,
    RollingWindow,
    TelemetryStream,
    merge_worker_heartbeats,
    read_heartbeat_dir,
    record_worker_point,
)
from repro.units import PICOSECONDS_PER_SECOND


def _square(value):
    """Module-level sweep experiment (picklable for worker processes)."""
    return value * value


class TestBoundedHistogram:
    def test_count_sum_min_max_match_exact(self):
        """The bounded aggregate keeps exact count/sum/min/max."""
        values = [0.003, 0.7, 1.0, 2.5, 14.0, 14.0, 311.0]
        bounded = BoundedHistogram("t")
        exact = Histogram("t")
        for value in values:
            bounded.observe(value)
            exact.observe(value)
        assert bounded.count == exact.count == len(values)
        assert bounded.total == exact.total
        assert bounded.mean == exact.mean
        assert bounded.min_value == min(values)
        assert bounded.max_value == max(values)

    def test_negative_and_zero_values(self):
        hist = BoundedHistogram("t")
        for value in (-5.0, 0.0, 0.0, 3.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.zeros == 2
        assert hist.total == -2.0
        assert hist.min_value == -5.0
        assert hist.max_value == 3.0
        uppers = [upper for upper, _count in hist.cumulative_buckets()]
        assert uppers == sorted(uppers)  # negatives, zero, positives
        assert uppers[0] < 0.0 < uppers[-1]
        assert hist.cumulative_buckets()[-1][1] == 4

    def test_merge_disjoint_bucket_ranges(self):
        """Merging histograms with no shared buckets adds exactly."""
        small = BoundedHistogram("t")
        large = BoundedHistogram("t")
        small_values = [1e-6, 3e-6, 9e-6]
        large_values = [1e6, 4e6]
        for value in small_values:
            small.observe(value)
        for value in large_values:
            large.observe(value)
        small.merge(large)
        assert small.count == 5
        assert small.total == sum(small_values) + sum(large_values)
        assert small.min_value == 1e-6
        assert small.max_value == 4e6
        cumulative = small.cumulative_buckets()
        counts = [count for _upper, count in cumulative]
        assert counts == sorted(counts)  # monotone
        assert counts[-1] == 5

    def test_merge_base_mismatch_raises(self):
        with pytest.raises(MeasurementError):
            BoundedHistogram("a", base=1.2).merge(BoundedHistogram("b", base=2.0))

    def test_merge_empty_is_noop(self):
        hist = BoundedHistogram("t")
        hist.observe(1.0)
        hist.merge(BoundedHistogram("other"))
        assert hist.count == 1 and hist.total == 1.0

    def test_snapshot_round_trip(self):
        hist = BoundedHistogram("t")
        for value in (-2.5, 0.0, 1e-9, 42.0, 42.0, 7e11):
            hist.observe(value)
        snap = json.loads(json.dumps(hist.snapshot()))  # through JSON, like a worker
        clone = BoundedHistogram.from_snapshot(snap)
        assert clone.snapshot() == hist.snapshot()
        assert clone.percentile(0.5) == hist.percentile(0.5)

    def test_from_snapshot_malformed_raises(self):
        with pytest.raises(MeasurementError):
            BoundedHistogram.from_snapshot({"name": "t"})

    def test_percentile_empty_raises_typed_error(self):
        """Both flavours: a percentile of nothing is a question, not 0."""
        with pytest.raises(MeasurementError):
            BoundedHistogram("t").percentile(0.5)
        with pytest.raises(MeasurementError):
            Histogram("t").percentile(0.5)

    def test_percentile_bucket_error_bound(self):
        """p50 lands within the sqrt(base)-1 relative bound, in [min, max]."""
        values = [1.0 + 0.37 * i for i in range(101)]
        bounded = BoundedHistogram("t")
        exact = Histogram("t")
        for value in values:
            bounded.observe(value)
            exact.observe(value)
        p50_exact = exact.percentile(0.5)
        p50_bounded = bounded.percentile(0.5)
        bound = math.sqrt(bounded.base) - 1.0
        assert abs(p50_bounded - p50_exact) / p50_exact <= bound + 1e-9
        assert bounded.min_value <= p50_bounded <= bounded.max_value

    def test_non_finite_observation_raises(self):
        with pytest.raises(MeasurementError):
            BoundedHistogram("t").observe(float("nan"))

    def test_registry_bounded_flag(self):
        registry = MetricsRegistry()
        assert isinstance(registry.histogram("a", bounded=True), BoundedHistogram)
        assert isinstance(registry.histogram("b"), Histogram)
        # flavour fixed at first creation; later lookups reuse it
        assert registry.histogram("a") is registry.histogram("a", bounded=True)
        snap = registry.snapshot()["histograms"]
        assert snap["a"]["bounded"] is True
        assert snap["b"]["bounded"] is False


class TestRollingWindow:
    def test_evicts_outside_simulated_window(self):
        window = RollingWindow("w", window_ps=100)
        window.observe(0, 1.0)
        window.observe(50, 2.0)
        window.observe(160, 3.0)  # horizon 60: evicts t=0 and t=50
        assert window.count == 1
        assert window.total == 3.0

    def test_non_positive_span_raises(self):
        with pytest.raises(MeasurementError):
            RollingWindow("w", window_ps=0)

    def test_rate_per_sim_second(self):
        window = RollingWindow("w", window_ps=10 * PICOSECONDS_PER_SECOND)
        window.observe(0, 1.0)
        window.observe(PICOSECONDS_PER_SECOND, 1.0)
        assert window.rate_per_sim_second() == pytest.approx(1.0)

    def test_maxlen_bounds_memory(self):
        window = RollingWindow("w", window_ps=10**15, maxlen=8)
        for index in range(100):
            window.observe(index, 1.0)
        assert window.count == 8


class TestTelemetryStream:
    def test_heartbeat_payload_shape(self):
        stream = TelemetryStream()
        stream.set_label("experiment", "fig2")
        beat = stream.heartbeat(
            "runner", done=2, total=4, sim_now_ps=PICOSECONDS_PER_SECOND, events=10
        )
        assert beat["schema"] == HEARTBEAT_SCHEMA
        assert beat["frac"] == 0.5
        assert beat["sim_s"] == 1.0
        assert beat["label"] == "fig2"  # falls back to the experiment label
        assert beat["eta_s"] is not None and beat["eta_s"] >= 0.0
        done = stream.heartbeat("runner", done=4, total=4)
        assert done["eta_s"] is None  # completed: no ETA
        assert stream.heartbeats["runner"] is done  # latest wins

    def test_heartbeat_mirror_file_round_trips(self, tmp_path):
        stream = TelemetryStream(heartbeat_dir=tmp_path)
        stream.heartbeat("macro engine", done=1, total=2)
        entries = read_heartbeat_dir(tmp_path)
        assert len(entries) == 1
        path, payload = entries[0]
        assert path.name == "hb-macro-engine.json"  # sanitized source name
        assert payload["source"] == "macro engine"

    def test_reader_skips_torn_and_foreign_files(self, tmp_path):
        (tmp_path / "torn.json").write_text('{"schema": "repro-hear')
        (tmp_path / "foreign.json").write_text('{"schema": "other/1"}')
        stream = TelemetryStream(heartbeat_dir=tmp_path)
        stream.heartbeat("runner", done=1, total=1)
        assert [p["source"] for _f, p in read_heartbeat_dir(tmp_path)] == ["runner"]

    def test_snapshot_is_sorted_and_json_able(self):
        stream = TelemetryStream()
        stream.set_label("experiment", "fig2")
        stream.histogram("b").observe(1.0)
        stream.histogram("a").observe(2.0)
        stream.window("w", window_ps=100).observe(10, 1.0)
        stream.heartbeat("runner", done=1, total=1)
        snap = json.loads(json.dumps(stream.snapshot()))
        assert list(snap["histograms"]) == ["a", "b"]
        assert snap["windows"]["w"]["count"] == 1
        assert snap["labels"] == {"experiment": "fig2"}


class TestWorkerHeartbeats:
    def test_record_and_merge_worker_points(self, tmp_path):
        record_worker_point(str(tmp_path), 4.0, 0.25, points_total=3)
        record_worker_point(str(tmp_path), 9.0, 0.50, points_total=3)
        files = list(tmp_path.glob("worker-*.json"))
        assert len(files) == 1  # same pid: atomic replace, latest state
        merged = merge_worker_heartbeats(tmp_path)
        assert merged["sweep.worker_result"].count == 2
        assert merged["sweep.worker_result"].total == 13.0
        assert merged["sweep.worker_wall_s"].total == pytest.approx(0.75)

    def test_absorb_merges_into_existing_histograms(self, tmp_path):
        record_worker_point(str(tmp_path), 4.0, 0.25, points_total=1)
        stream = TelemetryStream(heartbeat_dir=tmp_path)
        stream.histogram("sweep.worker_result").observe(1.0)
        absorbed = stream.absorb_worker_heartbeats()
        assert absorbed == 1
        assert stream.histograms["sweep.worker_result"].count == 2
        assert stream.histograms["sweep.worker_result"].total == 5.0
        assert any(
            source.startswith("sweep-worker-") for source in stream.heartbeats
        )

    def test_absorb_without_directory_is_noop(self):
        assert TelemetryStream().absorb_worker_heartbeats() == 0


class TestSweepStreaming:
    def test_serial_sweep_emits_live_progress(self):
        stream = TelemetryStream()
        with observe(stream=stream):
            rows = sweep([1.0, 2.0, 3.0], _square)
        assert [result for _value, result in rows] == [1.0, 4.0, 9.0]
        hist = stream.histograms["sweep.point_result"]
        assert hist.count == 3
        assert hist.total == 14.0  # exact sum survives the bounded aggregate
        beat = stream.heartbeats["sweep"]
        assert (beat["done"], beat["total"]) == (3, 3)

    def test_parallel_sweep_merges_worker_histograms(self, tmp_path):
        """The acceptance anchor: a forced-parallel sweep with heartbeats
        yields per-worker files and a merged bounded histogram whose
        count and sum match the exact per-point results."""
        values = [1.0, 2.0, 3.0, 4.0]
        serial = sweep(values, _square)
        stream = TelemetryStream(heartbeat_dir=tmp_path)
        with observe(stream=stream):
            parallel = sweep(values, _square, parallel=True, max_workers=2)
        assert parallel == serial  # identical ordered pairs

        assert list(tmp_path.glob("worker-*.json"))  # live per-worker snapshots
        exact = [result for _value, result in serial]
        merged = merge_worker_heartbeats(tmp_path)["sweep.worker_result"]
        assert merged.count == len(exact)
        assert merged.total == pytest.approx(sum(exact), rel=0, abs=0)

        # the parent absorbed the same aggregates after the pool drained
        absorbed = stream.histograms["sweep.worker_result"]
        assert absorbed.count == len(exact)
        assert absorbed.total == sum(exact)
        # and folded its own per-point view under distinct names
        assert stream.histograms["sweep.point_result"].count == len(exact)


class TestStreamHook:
    def test_disabled_by_default_and_context_managed(self):
        assert active().stream is None
        stream = TelemetryStream()
        with observe(stream=stream):
            assert active().stream is stream
        assert active().stream is None

    def test_install_uninstall(self):
        stream = TelemetryStream()
        with pytest.raises(RuntimeError):
            with observe(stream=stream):
                assert active().stream is stream
                raise RuntimeError("boom")
        assert active().stream is None


class TestStreamingPurity:
    def test_results_bit_for_bit_with_and_without_stream(self):
        dark = ODRIPSController().measure(cycles=2)
        stream = TelemetryStream()
        with observe(stream=stream):
            lit = ODRIPSController().measure(cycles=2)
        assert lit.average_power_w == dark.average_power_w
        assert lit.drips_residency == dark.drips_residency
        assert lit.drips_power_w == dark.drips_power_w
        # the stream did observe the run
        assert stream.histograms["measure.average_power_w"].count == 1
        assert stream.heartbeats["runner"]["done"] >= 2
        assert stream.labels["experiment"]
        assert stream.labels["fingerprint"]

    def test_macro_run_heartbeats_and_purity(self):
        dark = ODRIPSController().measure_raw(cycles=400, macro=True)
        stream = TelemetryStream()
        with observe(stream=stream):
            lit = ODRIPSController().measure_raw(cycles=400, macro=True)
        assert lit.average_power_w == dark.average_power_w
        assert lit.residency == dark.residency
        assert lit.wake_events == dark.wake_events
        beat = stream.heartbeats["macro"]
        assert beat["done"] <= beat["total"]
        assert beat["done"] >= 300  # the skip executor advanced the heartbeat
        assert stream.histograms["macro.step_cycles"].count >= 1
        assert stream.histograms["cycle.duration_s"].count >= 1  # exact cycles
