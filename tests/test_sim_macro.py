"""Cycle-compiled macro-stepping: differential equivalence and seams.

The contract under test (see docs/PERF.md): for periodic workloads a
macro run must equal the event-by-event run **bit-for-bit** — average
power, per-state energy, dwell times, flow latencies, and the wake log —
while compiling almost every cycle; at irregular points (external wakes)
the engine must fall back to exact simulation and re-engage, keeping the
totals within golden tolerance.
"""

from __future__ import annotations

import math

import pytest

from repro.config import StandbyWorkloadConfig, skylake_config
from repro.core.odrips import ODRIPSController
from repro.core.techniques import TechniqueSet
from repro.errors import MacroError, SimulationError
from repro.io.wake import WakeEventType
from repro.lint.model import lint_model_view, walk_model
from repro.obs.ledger import EnergyLedger
from repro.obs.hook import observe
from repro.obs.runlog import RunRecorder
from repro.obs.tracer import MACRO_TRACK, Tracer
from repro.perf import SimulationCache
from repro.sim.kernel import Kernel
from repro.sim.macro import cycles_for_horizon
from repro.system.skylake import SkylakePlatform
from repro.workloads.standby import ConnectedStandbyRunner

GOLDEN_REL_TOL = 1e-9


def _run(cycles, macro=False, workload=None, **runner_kwargs):
    platform = SkylakePlatform(skylake_config(), TechniqueSet.baseline())
    runner = ConnectedStandbyRunner(
        platform, workload=workload, macro=macro, **runner_kwargs
    )
    return runner.run(cycles=cycles), runner


@pytest.fixture(scope="module")
def external_wake_runs():
    """Exact and macro runs of 30 cycles with injected network wakes."""
    workload = StandbyWorkloadConfig(external_wake_rate_per_hour=20.0)
    exact, _ = _run(cycles=30, workload=workload, external_wakes=True)
    macro, runner = _run(cycles=30, workload=workload, external_wakes=True, macro=True)
    return exact, macro, runner


class TestDifferentialEquivalence:
    def test_periodic_results_bit_for_bit(self):
        """>= 10 cycles: every measured figure identical, not merely close."""
        exact, _ = _run(cycles=12)
        macro, _ = _run(cycles=12, macro=True)
        assert exact.macro is None
        assert macro.macro is not None and macro.macro["cycles_compiled"] >= 9
        assert macro.average_power_w == exact.average_power_w
        assert macro.residency == exact.residency
        assert macro.residency.dwell_ps == exact.residency.dwell_ps
        assert macro.residency.energy_j == exact.residency.energy_j
        assert macro.entry_latencies_ps == exact.entry_latencies_ps
        assert macro.exit_latencies_ps == exact.exit_latencies_ps
        assert macro.wake_events == exact.wake_events
        assert (macro.window_start_ps, macro.window_end_ps) == (
            exact.window_start_ps,
            exact.window_end_ps,
        )

    def test_fixed_period_schedule_bit_for_bit(self):
        """The Sec. 7 break-even schedule (period_s) compiles too."""
        exact, _ = _run(cycles=10, period_s=30.2)
        macro, _ = _run(cycles=10, period_s=30.2, macro=True)
        assert macro.macro["cycles_compiled"] > 0
        assert macro.average_power_w == exact.average_power_w
        assert macro.residency == exact.residency
        assert macro.wake_events == exact.wake_events

    def test_external_wake_fallback_within_tolerance(self, external_wake_runs):
        """A mid-horizon external wake de-compiles; totals still match."""
        exact, macro, _ = external_wake_runs
        stats = macro.macro
        assert stats["cycles_compiled"] > 0
        assert stats["fingerprint_mismatches"] > 0  # wakes broke periodicity
        assert stats["fallbacks"] >= 1  # engine de-compiled at least once
        assert stats["macro_steps"] >= 2  # ... and re-engaged afterwards
        rel = abs(macro.average_power_w - exact.average_power_w) / exact.average_power_w
        assert rel <= GOLDEN_REL_TOL
        assert macro.residency.dwell_ps == exact.residency.dwell_ps
        assert macro.wake_events == exact.wake_events

    def test_external_wakes_bound_each_span(self, external_wake_runs):
        """Spans stop before every injected wake; the run stays bit-for-bit."""
        exact, macro, runner = external_wake_runs
        spans = runner._macro_engine.spans
        assert len(spans) >= 2 and macro.macro["macro_steps"] == len(spans)
        injected = [
            event.time_ps
            for event in runner.platform.wake_log
            if event.event_type is WakeEventType.NETWORK
        ]
        assert injected
        assert not [t for t in injected for s in spans if s.start_ps <= t < s.end_ps]
        assert macro.average_power_w == exact.average_power_w
        assert macro.residency.energy_j == exact.residency.energy_j
        assert macro.entry_latencies_ps == exact.entry_latencies_ps
        assert macro.exit_latencies_ps == exact.exit_latencies_ps
        assert macro.wake_events == exact.wake_events

    def test_randomized_maintenance_disables_engine(self):
        result, runner = _run(cycles=3, macro=True, randomize_maintenance=True)
        assert runner._macro_engine is None
        assert result.macro is None


class TestLedgerDiscipline:
    def test_macro_trace_stays_ledger_consumable(self):
        """Summary records keep naive rail integration balanced: the
        obs ledger integrates the macro trace's rail channels across the
        compiled spans and still lands on the measured total energy."""
        import math

        platform = SkylakePlatform(skylake_config(), TechniqueSet.baseline())
        result = ConnectedStandbyRunner(platform, macro=True).run(cycles=15)
        assert result.macro["cycles_compiled"] > 0
        ledger = EnergyLedger.from_trace(
            platform.trace, result.window_start_ps, result.window_end_ps
        )
        total = math.fsum(result.residency.energy_j.values())
        assert abs(ledger.total_energy_j - total) <= GOLDEN_REL_TOL * total

    def test_runtime_check_rejects_undeclared_rail(self):
        """Seeded mutation: dropping a rail from the declaration trips
        the compile-time ledger check (non-vacuity of the runtime gate)."""
        platform = SkylakePlatform(skylake_config(), TechniqueSet.baseline())
        spec = platform.macro_description()
        rails = tuple(spec["ledger_rails"])[:-1]  # drop one declared rail
        platform.macro_description = lambda: {"ledger_rails": rails}
        runner = ConnectedStandbyRunner(platform, macro=True)
        with pytest.raises(MacroError, match="ledger"):
            runner.run(cycles=8)


class TestM308LedgerCoverage:
    def test_shipped_platform_clean(self):
        platform = SkylakePlatform(skylake_config(), TechniqueSet.odrips())
        diagnostics = lint_model_view(walk_model(platform))
        assert [d for d in diagnostics if d.rule == "M308"] == []

    def test_seeded_mutation_undeclared_rail(self):
        platform = SkylakePlatform(skylake_config(), TechniqueSet.baseline())
        view = walk_model(platform)
        view.macro_ledger_rails = view.macro_ledger_rails[:-1]
        found = [d for d in lint_model_view(view) if d.rule == "M308"]
        assert len(found) == 1 and "missing from the macro ledger" in found[0].message

    def test_seeded_mutation_stale_declaration(self):
        platform = SkylakePlatform(skylake_config(), TechniqueSet.baseline())
        view = walk_model(platform)
        view.macro_ledger_rails = view.macro_ledger_rails + ("ghost_rail",)
        found = [d for d in lint_model_view(view) if d.rule == "M308"]
        assert len(found) == 1 and "stale" in found[0].message

    def test_platform_without_hook_exempt(self):
        view = walk_model(object())
        assert [d for d in lint_model_view(view) if d.rule == "M308"] == []


class TestKernelWarp:
    def test_warp_shifts_clock_and_queue_uniformly(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(100, lambda: fired.append(("a", kernel.now)), label="a")
        kernel.schedule(200, lambda: fired.append(("b", kernel.now)), label="b")
        kernel.warp(1_000)
        assert kernel.now == 1_000
        kernel.run()
        assert fired == [("a", 1_100), ("b", 1_200)]

    def test_warp_backwards_rejected(self):
        with pytest.raises(SimulationError):
            Kernel().warp(-1)

    def test_pending_signature_invariant_under_warp(self):
        kernel = Kernel()
        kernel.schedule(500, lambda: None, label="later")
        kernel.schedule(100, lambda: None, label="sooner")
        cancelled = kernel.schedule(300, lambda: None, label="gone")
        cancelled.cancel()
        before = kernel.pending_signature()
        assert before == ((100, "sooner"), (500, "later"))
        kernel.warp(10_000)
        assert kernel.pending_signature() == before


class TestIntegrationSeams:
    def test_cache_key_distinguishes_macro_from_exact(self):
        cache = SimulationCache()
        controller = ODRIPSController(cache=cache)
        exact = controller.measure(cycles=3, macro=False)
        macro = controller.measure(cycles=3, macro=True)
        assert cache.stats.misses == 2 and cache.stats.hits == 0
        assert macro.average_power_w == exact.average_power_w
        again = controller.measure(cycles=3, macro=True)
        assert cache.stats.hits == 1 and again is macro

    def test_obs_macro_span_and_metric(self):
        tracer = Tracer()
        with observe(tracer=tracer):
            platform = SkylakePlatform(skylake_config(), TechniqueSet.baseline())
            result = ConnectedStandbyRunner(platform, macro=True).run(cycles=10)
        compiled = result.macro["cycles_compiled"]
        assert compiled > 0
        assert tracer.metrics.counter_value("macro.cycles_compiled") == compiled
        assert tracer.metrics.counter_value("macro.steps") == result.macro["macro_steps"]
        spans = [s for s in tracer.spans if s.track == MACRO_TRACK]
        assert spans and all(s.name.startswith("macro:compiled") for s in spans)

    def test_sweep_serial_fallback_on_single_cpu(self, monkeypatch):
        import importlib

        sweep_module = importlib.import_module("repro.analysis.sweep")
        monkeypatch.setattr(sweep_module, "_usable_cpus", lambda: 1)
        recorder = RunRecorder()
        with observe(recorder=recorder):
            rows = sweep_module.sweep([1.0, 2.0], _double)
        assert rows == [(1.0, 2.0), (2.0, 4.0)]
        (record,) = recorder._pending_sweeps
        assert record["workers"] is None
        assert "parallel" not in record and "backend" not in record

    def test_sweep_explicit_backends_still_recorded(self, monkeypatch):
        import importlib

        sweep_module = importlib.import_module("repro.analysis.sweep")
        monkeypatch.setattr(sweep_module, "_usable_cpus", lambda: 2)
        recorder = RunRecorder()
        with observe(recorder=recorder):
            sweep_module.sweep([1.0, 2.0], _double)
        (record,) = recorder._pending_sweeps
        assert record["workers"] == 2


def _double(value):
    return value * 2


class TestHorizonHelper:
    def test_cycles_for_horizon(self):
        # one fig2 cycle is idle + maintenance ~= 30.145 s
        assert cycles_for_horizon(7.0, 30.0, 0.145) == round(7 * 86400 / 30.145)
        assert cycles_for_horizon(0.0001, 30.0, 0.145) == 1  # floor of one cycle

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(MacroError):
            cycles_for_horizon(0.0, 30.0, 0.145)

    def test_rejects_nan_idle_interval(self):
        # used to raise ValueError from round()
        with pytest.raises(MacroError, match="idle interval"):
            cycles_for_horizon(7.0, math.nan, 0.145)

    def test_rejects_negative_maintenance(self):
        # used to raise ZeroDivisionError on a zero period
        with pytest.raises(MacroError, match="maintenance"):
            cycles_for_horizon(7.0, 30.0, -30.0)

    def test_rejects_infinite_idle_interval(self):
        # used to return one cycle
        with pytest.raises(MacroError, match="idle interval"):
            cycles_for_horizon(7.0, math.inf, 0.145)

    def test_rejects_negative_idle_interval(self):
        # used to return one cycle
        with pytest.raises(MacroError, match="idle interval"):
            cycles_for_horizon(7.0, -5.0, 0.145)

    def test_rejects_an_overflowing_period(self):
        with pytest.raises(MacroError, match="period"):
            cycles_for_horizon(7.0, 1e308, 1e308)


class TestRotatingContextPeriod:
    def test_pcm_flow_latencies_repeat_every_allocator_slot_cycle(self):
        """ODRIPS-PCM rotates its context through ``slots`` places, and its
        flow latencies repeat with that period, not with one cycle: the
        engine's one-cycle fingerprint never matches a PCM cycle (the
        latencies do not grow)."""
        controller = ODRIPSController(TechniqueSet.odrips_pcm())
        slots = controller.build_platform().context_allocator.slots
        assert slots == 4
        result = controller.measure_raw(cycles=2 * slots + 1)
        entry = result.entry_latencies_ps[1:]  # the first entry follows boot
        for latencies in (entry, result.exit_latencies_ps):
            assert len(latencies) >= 2 * slots
            assert latencies[slots:] == latencies[:-slots]
            for shorter in range(1, slots):
                assert latencies[shorter:] != latencies[:-shorter]
        assert result.exit_latencies_ps[:slots] == [421413731, 421419064, 421419065, 421419065]
        steps = [later - earlier for earlier, later in zip(entry, entry[1:])]
        assert steps[:slots] == [-5333, -1, 0, 5334]
