"""Host-phase profiler tests: spans, nesting, stats, the opt-in seam."""

from __future__ import annotations

import pytest

from repro.core.experiments import fig2_connected_standby
from repro.obs.hook import active, observe
from repro.obs.profile import PHASES, PhaseProfiler, host_phase


class TestPhaseProfiler:
    def test_single_phase_span(self):
        profiler = PhaseProfiler()
        with profiler.phase("build") as span:
            pass
        assert span.end_s is not None
        assert span.wall_s >= 0.0
        assert span.depth == 0
        assert profiler.closed_spans() == [span]

    def test_nesting_and_self_time(self):
        profiler = PhaseProfiler()
        with profiler.phase("simulate") as outer:
            with profiler.phase("measure") as inner:
                pass
        assert inner.depth == 1
        assert outer.children_s == inner.wall_s
        assert outer.self_s == pytest.approx(outer.wall_s - inner.wall_s)

    def test_stats_aggregate_and_order(self):
        profiler = PhaseProfiler()
        with profiler.phase("analyze"):
            with profiler.phase("build"):
                pass
            with profiler.phase("build"):
                pass
        stats = profiler.stats()
        assert list(stats) == ["build", "analyze"]  # known-phase order
        assert stats["build"].count == 2
        assert stats["analyze"].count == 1

    def test_custom_phase_names_append(self):
        profiler = PhaseProfiler()
        with profiler.phase("warmup"):
            pass
        assert list(profiler.stats()) == ["warmup"]

    def test_total_wall_counts_top_level_only(self):
        profiler = PhaseProfiler()
        with profiler.phase("analyze"):
            with profiler.phase("simulate"):
                pass
        total = profiler.total_wall_s()
        spans = {span.name: span for span in profiler.closed_spans()}
        assert total == pytest.approx(spans["analyze"].wall_s)

    def test_summary_is_jsonable(self):
        import json

        profiler = PhaseProfiler()
        with profiler.phase("build"):
            pass
        summary = profiler.summary()
        assert json.dumps(summary)
        assert summary["build"]["count"] == 1
        assert "peak_bytes" not in summary["build"]

    def test_allocation_tracking(self):
        profiler = PhaseProfiler(track_allocations=True)
        with observe(profiler=profiler):
            with profiler.phase("simulate"):
                _ = [0] * 100_000
        span = profiler.closed_spans()[0]
        assert span.peak_bytes is not None
        assert span.peak_bytes > 100_000 * 4
        assert profiler.summary()["simulate"]["peak_bytes"] == span.peak_bytes

    def test_known_phases_constant(self):
        assert PHASES == ("build", "simulate", "measure", "analyze")


class TestOptInSeam:
    def test_host_phase_is_noop_when_disabled(self):
        assert active().profiler is None
        with host_phase("build"):
            pass  # must not raise or record anywhere

    def test_host_phase_records_when_installed(self):
        profiler = PhaseProfiler()
        with observe(profiler=profiler):
            with host_phase("build"):
                pass
        assert [span.name for span in profiler.closed_spans()] == ["build"]

    def test_profiled_context(self):
        profiler = PhaseProfiler()
        with observe(profiler=profiler):
            assert active().profiler is profiler
        assert active().profiler is None


class TestExperimentIntegration:
    def test_fig2_attributes_build_and_simulate(self):
        profiler = PhaseProfiler()
        with observe(profiler=profiler):
            with profiler.phase("analyze"):
                fig2_connected_standby(cycles=1)
        stats = profiler.stats()
        assert stats["build"].count >= 1
        assert stats["simulate"].count >= 1
        assert stats["analyze"].count == 1
        # simulate dominates an experiment run
        assert stats["simulate"].wall_s > stats["build"].wall_s
        # nested phases never exceed their parent
        assert stats["analyze"].wall_s >= stats["simulate"].wall_s

    def test_analyzer_measure_phase(self):
        from repro.measure.analyzer import PowerAnalyzer
        from repro.sim.trace import TraceRecorder
        from repro.units import seconds_to_ps, us_to_ps

        trace = TraceRecorder()
        trace.record(0, "platform", 1.0)
        trace.record(seconds_to_ps(1.0), "platform", 2.0)
        analyzer = PowerAnalyzer(trace, sampling_interval_ps=us_to_ps(50))
        profiler = PhaseProfiler()
        with observe(profiler=profiler):
            analyzer.measure(0, seconds_to_ps(1.0))
        assert profiler.stats()["measure"].count == 1

    def test_run_record_attaches_profile(self):
        from repro.obs.runlog import RunRecorder

        recorder = RunRecorder()
        with observe(profiler=PhaseProfiler(), recorder=recorder):
            fig2_connected_standby(cycles=1)
        record = recorder.records[0]
        assert "profile" in record
        assert record["profile"]["simulate"]["count"] >= 1
