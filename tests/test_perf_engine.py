"""Differential tests for the fast-path simulation engine.

Guards the contracts docs/PERF.md documents: the closed-form analyzer
reading matches the raw-sample reference bit-for-bit (correctly rounded
mean) and the exact integral within the instrument tolerance; the
column-oriented trace answers every query like a brute-force scan; the
memoization cache returns identical objects across experiment drivers;
and sweeps fanned out over worker processes equal in-process ones.
"""

import importlib
import math
import random

import pytest

from repro.analysis.breakeven import residency_sweep
from repro.core import ODRIPSController, TechniqueSet
from repro.core.experiments import (
    fig2_connected_standby,
    fig6a_techniques,
    fig6b_core_frequency,
    fig6c_dram_frequency,
)
from repro.measure.analyzer import PowerAnalyzer
from repro.obs.hook import observe
from repro.obs.profile import PhaseProfiler
from repro.obs.runlog import RunRecorder
from repro.obs.tracer import Tracer
from repro.perf import SimulationCache, fingerprint
from repro.sim.trace import TraceRecorder
from repro.units import seconds_to_ps, us_to_ps

#: The module, not the ``sweep`` function ``repro.analysis`` re-exports.
sweep_module = importlib.import_module("repro.analysis.sweep")


def fig2_sized_trace(cycles: int = 2) -> TraceRecorder:
    """A synthetic platform-power trace shaped like the Fig. 2 workload:
    ~30 s cycles of active burst / entry / DRIPS / exit steps."""
    trace = TraceRecorder()
    t = 0
    for _cycle in range(cycles):
        for duration_s, watts in (
            (0.145, 3.04),    # maintenance burst
            (0.0002, 0.90),   # entry flow
            (29.70, 0.060),   # DRIPS
            (0.0003, 1.20),   # exit flow
        ):
            trace.record(t, "platform", watts)
            t += seconds_to_ps(duration_s)
    trace.record(t, "platform", 3.04)
    return trace


class TestAnalyzerFastPath:
    def test_reading_matches_sample_reference_bit_for_bit(self):
        """measure() equals the correctly rounded mean of sample_window()."""
        trace = fig2_sized_trace()
        analyzer = PowerAnalyzer(trace, sampling_interval_ps=us_to_ps(50))
        end_ps = trace.last("platform").time_ps
        reading = analyzer.measure(0, end_ps)
        samples = analyzer.sample_window(0, end_ps)
        assert reading.samples == len(samples)
        assert reading.min_watts == min(samples)
        assert reading.max_watts == max(samples)
        assert reading.average_watts == math.fsum(samples) / len(samples)

    def test_reading_matches_naive_sum_within_documented_tolerance(self):
        """The pre-change reference summed left-to-right; its accumulated
        rounding differs from the correctly rounded mean by O(n*eps) —
        documented in docs/PERF.md as < 1e-9 relative."""
        trace = fig2_sized_trace()
        analyzer = PowerAnalyzer(trace, sampling_interval_ps=us_to_ps(50))
        end_ps = trace.last("platform").time_ps
        reading = analyzer.measure(0, end_ps)
        samples = analyzer.sample_window(0, end_ps)
        naive = sum(samples) / len(samples)
        assert reading.average_watts == pytest.approx(naive, rel=1e-9)

    def test_fast_path_agrees_with_exact_integral_on_fig2_window(self):
        """Tier-1 guard: the 50 us grid reading converges to the exact
        trace integral on a fig2-sized (30 s) window (Sec. 7 argument)."""
        trace = fig2_sized_trace()
        analyzer = PowerAnalyzer(trace, sampling_interval_ps=us_to_ps(50))
        end_ps = trace.last("platform").time_ps
        reading = analyzer.measure(0, end_ps)
        exact = analyzer.exact_average(0, end_ps)
        assert reading.average_watts == pytest.approx(exact, rel=0.002)

    def test_window_before_first_record(self):
        trace = TraceRecorder()
        trace.record(1000, "platform", 2.0)
        analyzer = PowerAnalyzer(trace, sampling_interval_ps=100)
        reading = analyzer.measure(0, 2000)
        samples = analyzer.sample_window(0, 2000)
        assert reading.samples == len(samples)
        assert reading.min_watts == 0.0  # grid points before the first record
        assert reading.average_watts == math.fsum(samples) / len(samples)

    def test_unaligned_windows_match_reference(self):
        """Windows whose edges do not align with steps or the grid."""
        trace = fig2_sized_trace()
        analyzer = PowerAnalyzer(trace, sampling_interval_ps=us_to_ps(50))
        for start_ps, end_ps in (
            (7, seconds_to_ps(1.0) + 13),
            (seconds_to_ps(0.145), seconds_to_ps(31.0)),
            (seconds_to_ps(0.1), seconds_to_ps(0.2) + 1),
        ):
            reading = analyzer.measure(start_ps, end_ps)
            samples = analyzer.sample_window(start_ps, end_ps)
            assert reading.samples == len(samples)
            assert reading.min_watts == min(samples)
            assert reading.max_watts == max(samples)
            assert reading.average_watts == math.fsum(samples) / len(samples)

    def test_gain_error_matches_reference(self):
        trace = fig2_sized_trace(cycles=1)
        analyzer = PowerAnalyzer(
            trace, sampling_interval_ps=us_to_ps(50), apply_gain_error=True
        )
        end_ps = trace.last("platform").time_ps
        reading = analyzer.measure(0, end_ps)
        samples = analyzer.sample_window(0, end_ps)
        assert reading.average_watts == math.fsum(samples) / len(samples)


class TestTraceColumnStore:
    def random_trace(self):
        rng = random.Random(7)
        trace = TraceRecorder()
        rows = []
        t = 0
        for _ in range(300):
            t += rng.randrange(0, 50)
            channel = rng.choice(["a", "b", "c"])
            value = rng.choice(["x", "y", 1, 2, 3.5])
            trace.record(t, channel, value)
            rows.append((t, channel, value))
        return trace, rows

    def brute_value_at(self, rows, channel, time_ps):
        result = None
        for t, ch, value in rows:
            if ch != channel:
                continue
            if t > time_ps:
                break
            result = value
        return result

    def test_value_at_matches_brute_force(self):
        trace, rows = self.random_trace()
        horizon = rows[-1][0] + 100
        for channel in ("a", "b", "c", "missing"):
            for probe in range(0, horizon, 37):
                assert trace.value_at(channel, probe) == self.brute_value_at(
                    rows, channel, probe
                ), (channel, probe)

    def test_intervals_partition_the_window(self):
        trace, rows = self.random_trace()
        end_ps = rows[-1][0] + 500
        for channel in ("a", "b", "c"):
            intervals = list(trace.intervals(channel, end_ps))
            # contiguous, half-open, ending exactly at end_ps
            for (lo_a, hi_a, _va), (lo_b, _hi_b, _vb) in zip(intervals, intervals[1:]):
                assert hi_a == lo_b
            assert intervals[-1][1] == end_ps
            # each interval reports the step value at its start
            for lo, _hi, value in intervals:
                assert trace.value_at(channel, lo) == value

    def test_intervals_start_hint_only_drops_earlier_steps(self):
        trace, rows = self.random_trace()
        end_ps = rows[-1][0] + 500
        start_ps = rows[len(rows) // 2][0]
        for channel in ("a", "b", "c"):
            full = [
                (max(lo, start_ps), min(hi, end_ps), value)
                for lo, hi, value in trace.intervals(channel, end_ps)
                if min(hi, end_ps) > max(lo, start_ps)
            ]
            hinted = [
                (max(lo, start_ps), min(hi, end_ps), value)
                for lo, hi, value in trace.intervals(channel, end_ps, start_ps=start_ps)
                if min(hi, end_ps) > max(lo, start_ps)
            ]
            assert hinted == full

    def test_dwell_times_sum_to_window(self):
        trace, rows = self.random_trace()
        end_ps = rows[-1][0] + 500
        for channel in ("a", "b", "c"):
            first_ps = min(t for t, ch, _v in rows if ch == channel)
            dwell = trace.dwell_times(channel, end_ps)
            assert sum(dwell.values()) == end_ps - first_ps

    def test_global_sample_order_preserved(self):
        trace, rows = self.random_trace()
        assert [(s.time_ps, s.channel, s.value) for s in trace.samples()] == rows
        assert len(trace) == len(rows)


class TestSimulationCache:
    def test_fingerprint_is_value_based(self):
        from repro.config import skylake_config

        assert fingerprint(skylake_config(), TechniqueSet.odrips()) == fingerprint(
            skylake_config(), TechniqueSet.odrips()
        )
        assert fingerprint(skylake_config(), TechniqueSet.odrips()) != fingerprint(
            skylake_config(), TechniqueSet.baseline()
        )

    def test_fingerprint_distinguishes_measure_arguments(self):
        cache = SimulationCache()
        key_a = cache.key("measure", {"cycles": 1, "core_freq_ghz": None})
        key_b = cache.key("measure", {"cycles": 2, "core_freq_ghz": None})
        assert key_a != key_b

    def test_get_or_run_runs_once(self):
        cache = SimulationCache()
        calls = []

        def runner():
            calls.append(1)
            return "result"

        key = cache.key("unit-test")
        assert cache.get_or_run(key, runner) == "result"
        assert cache.get_or_run(key, runner) == "result"
        assert calls == [1]
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert len(cache) == 1

    def test_controller_memoizes_identical_measurements(self):
        cache = SimulationCache()
        controller = ODRIPSController(TechniqueSet.baseline(), cache=cache)
        first = controller.measure(cycles=1)
        second = controller.measure(cycles=1)
        assert second is first  # memoized object, not a re-simulation
        assert cache.stats.hits == 1

    def test_cache_shared_across_experiment_drivers(self):
        """The baseline standby run is reused between fig2 and fig6a."""
        cache = SimulationCache()
        fig2 = fig2_connected_standby(cycles=1, cache=cache)
        misses_after_fig2 = cache.stats.misses
        fig6a = fig6a_techniques(cycles=1, cache=cache)
        assert cache.stats.hits >= 1
        # fig6a added only its four technique runs, not a second baseline
        assert cache.stats.misses == misses_after_fig2 + 4
        assert fig6a.baseline_mw == pytest.approx(fig2.average_power_mw, rel=1e-12)

    def test_cached_and_uncached_results_agree(self):
        cache = SimulationCache()
        cached = ODRIPSController(TechniqueSet.odrips(), cache=cache).measure(cycles=1)
        uncached = ODRIPSController(TechniqueSet.odrips()).measure(cycles=1)
        assert cached.average_power_w == uncached.average_power_w
        assert cached.drips_residency == uncached.drips_residency


def _swept_on(monkeypatch, cpus, run):
    """``run()`` with ``cpus`` usable; also the sweep's pool size (``None``
    in-process)."""
    monkeypatch.setattr(sweep_module, "_usable_cpus", lambda: cpus)
    recorder = RunRecorder()
    with observe(recorder=recorder):
        result = run()
        recorder.finish("sweep")
    (fanout,) = recorder.records[-1]["sweeps"]
    return result, fanout["workers"]


def _sweep_rows(rows):
    return [(row.parameter, row.average_power_mw, row.delta_vs_reference) for row in rows]


class TestParallelSweeps:
    """A sweep fanned out over the pool equals the same sweep in-process."""

    def _assert_pool_matches_in_process(self, monkeypatch, run):
        parallel, parallel_workers = _swept_on(monkeypatch, 2, run)
        serial, serial_workers = _swept_on(monkeypatch, 1, run)
        assert (parallel_workers, serial_workers) == (2, None)
        assert parallel == serial

    def test_fig6b_parallel_identical_to_serial(self, monkeypatch):
        self._assert_pool_matches_in_process(monkeypatch, lambda: _sweep_rows(
            fig6b_core_frequency(cycles=1, frequencies_ghz=(0.8, 1.5))
        ))

    def test_fig6c_parallel_identical_to_serial(self, monkeypatch):
        self._assert_pool_matches_in_process(monkeypatch, lambda: _sweep_rows(
            fig6c_dram_frequency(cycles=1, rates_hz=(1.6e9, 0.8e9))
        ))

    def test_residency_sweep_parallel_identical_to_serial(self, monkeypatch):
        self._assert_pool_matches_in_process(monkeypatch, lambda: residency_sweep(
            TechniqueSet.wake_up_off_only(), [0.01, 0.05], cycles=1
        ))

    @pytest.mark.parametrize("sink, make", [("tracer", Tracer), ("profiler", PhaseProfiler)])
    def test_observed_sweep_stays_in_process(self, monkeypatch, sink, make):
        """Tracer and profiler live in this process: workers would hide
        every span from them, so an observed sweep never forks."""
        installed = make()
        with observe(**{sink: installed}):
            rows, workers = _swept_on(monkeypatch, 2, lambda: fig6b_core_frequency(
                cycles=1, frequencies_ghz=(0.8, 1.5)
            ))
        assert workers is None
        assert len(rows) == 2
        assert installed.spans  # the points ran where the sink could see them
