"""Microbenchmarks for the live streaming-telemetry pipeline.

Two guards keep ``repro.obs.stream`` honest:

* **Disabled overhead** — with no stream installed the hot seams pay one
  attribute load + ``is None`` test per standby cycle (plus one
  ``active().stream`` lookup per run).  The fig2 bench prices that guard
  directly and asserts it stays under 5% of the dark run.
* **Enabled overhead** — streaming a 7-day cycle-compiled macro run
  (heartbeats + bounded histograms per macro step) must stay cheap
  enough to leave on, and must leave the simulation results bit-for-bit
  identical to a telemetry-disabled run.

Figures merge into ``BENCH_perf.json`` (other benches' entries are
preserved) so ``python -m repro report`` can watch both ceilings.

Run with ``pytest benchmarks/bench_obs_stream.py --benchmark-only``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.config import StandbyWorkloadConfig
from repro.core.experiments import fig2_connected_standby
from repro.core.odrips import ODRIPSController
from repro.obs.hook import active, observe
from repro.obs.stream import TelemetryStream
from repro.sim.macro import cycles_for_horizon

from _bench import run_once

#: The telemetry off-switch ceiling (ISSUE acceptance criterion; the
#: regress watchdog carries the same limit).
MAX_DISABLED_OVERHEAD_FRAC = 0.05

#: Streaming a week-scale macro run must stay cheap enough to leave on.
MAX_ENABLED_OVERHEAD_FRAC = 0.25

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_perf.json"

_results: dict = {}


@pytest.fixture(scope="module", autouse=True)
def _write_bench_json():
    """Merge this module's figures into BENCH_perf.json on teardown.

    Unlike bench_perf_engine (which owns the file and rewrites it whole),
    this module merges: existing benches from other harnesses survive.
    """
    yield
    if not _results:
        return
    payload = {"schema": "repro-bench-perf/1", "benches": {}}
    if BENCH_JSON.exists():
        try:
            payload = json.loads(BENCH_JSON.read_text())
        except json.JSONDecodeError:
            pass
    payload.setdefault("benches", {}).update(_results)
    payload.setdefault("generated_by", "benchmarks/bench_obs_stream.py")
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _guard_cost_s() -> float:
    """Price one disabled-path telemetry guard: attribute load + None test."""

    class Probe:
        _stream = None

    probe = Probe()
    iterations = 200_000
    t0 = time.perf_counter()
    for _ in range(iterations):
        stream = probe._stream
        if stream is not None:  # pragma: no cover - never taken
            raise AssertionError
    return (time.perf_counter() - t0) / iterations


def _lookup_cost_s() -> float:
    """Price one ``active().stream`` lookup (paid once per run/measure)."""
    iterations = 100_000
    t0 = time.perf_counter()
    for _ in range(iterations):
        active().stream
    return (time.perf_counter() - t0) / iterations


def test_stream_overhead_fig2(benchmark, emit):
    """Telemetry disabled on fig2: the guard must cost under 5% of the run.

    The disabled path's *only* added work is the per-cycle guard and two
    ``active().stream`` lookups, so the overhead is priced analytically
    (micro-benched guard cost x guard evaluations / dark wall) — the
    delta is far below run-to-run simulation noise, so an A/B wall-clock
    diff could not resolve it.  A streamed run is also timed for the
    enabled figure, and its simulation results must match the dark run
    bit-for-bit.
    """
    cycles = 3
    fig2_connected_standby(cycles=cycles)  # warm imports outside both clocks

    dark = run_once(benchmark, fig2_connected_standby, cycles=cycles)
    dark_s = min(benchmark.stats.stats.data)

    stream = TelemetryStream()
    t0 = time.perf_counter()
    with observe(stream=stream):
        lit = fig2_connected_standby(cycles=cycles)
    enabled_s = time.perf_counter() - t0

    # purity gate: streaming must never perturb the simulation
    assert lit.average_power_mw == dark.average_power_mw
    assert lit.drips_residency == dark.drips_residency

    # one observation per runner cycle (the runner may pad the caller's
    # cycle count to close its measurement window; the heartbeat is the
    # ground truth for how many cycles actually ran)
    hist = stream.histograms["cycle.duration_s"]
    assert hist.count == stream.heartbeats["runner"]["done"] >= cycles

    guard_s = _guard_cost_s()
    lookup_s = _lookup_cost_s()
    # one guard per standby cycle + one active().stream in run() and one
    # in measure()
    cycles_run = stream.heartbeats["runner"]["done"]
    disabled_overhead_s = guard_s * cycles_run + lookup_s * 2
    disabled_frac = disabled_overhead_s / dark_s
    assert disabled_frac < MAX_DISABLED_OVERHEAD_FRAC
    enabled_frac = enabled_s / dark_s - 1.0
    _results["obs_stream_fig2"] = {
        "wall_s": dark_s,
        "enabled_wall_s": enabled_s,
        "enabled_overhead_frac": enabled_frac,
        "guard_cost_ns": guard_s * 1e9,
        "lookup_cost_ns": lookup_s * 1e9,
        "guard_evaluations": cycles_run + 2,
        "disabled_overhead_frac": disabled_frac,
    }
    emit(
        f"stream on fig2: dark {dark_s:.2f} s, streamed {enabled_s:.2f} s "
        f"({enabled_frac:+.1%}); disabled guard {guard_s * 1e9:.0f} ns x "
        f"{cycles_run + 2} = {disabled_frac:.2e} of the run "
        "(results bit-for-bit)"
    )


def test_stream_overhead_week(benchmark, emit):
    """7 simulated days of fig2 macro-stepping with live telemetry on.

    Heartbeats and bounded-histogram observations fire per macro step,
    not per cycle, so the enabled cost must stay within the 25% ceiling
    — and the macro results (power, residency, wakes) must be
    bit-for-bit identical to the telemetry-disabled run.
    """
    workload = StandbyWorkloadConfig()
    cycles = cycles_for_horizon(
        7.0, workload.idle_interval_s, workload.maintenance_mean_s
    )

    ODRIPSController().measure_raw(cycles=200, macro=True)  # warm imports
    t0 = time.perf_counter()
    dark = ODRIPSController().measure_raw(cycles=cycles, macro=True)
    dark_s = time.perf_counter() - t0

    stream = TelemetryStream()
    with observe(stream=stream):
        lit = run_once(
            benchmark, ODRIPSController().measure_raw, cycles=cycles, macro=True
        )
    enabled_s = min(benchmark.stats.stats.data)

    # purity gate: bit-for-bit, not within-tolerance
    assert lit.average_power_w == dark.average_power_w
    assert lit.residency == dark.residency
    assert lit.wake_events == dark.wake_events

    beats = stream.heartbeats
    assert "macro" in beats and beats["macro"]["done"] >= cycles - 10
    overhead = enabled_s / dark_s - 1.0
    assert overhead < MAX_ENABLED_OVERHEAD_FRAC
    _results["obs_stream_week"] = {
        "wall_s": enabled_s,
        "dark_wall_s": dark_s,
        "enabled_overhead_frac": overhead,
        "horizon_days": 7.0,
        "cycles": cycles,
        "macro_steps": lit.macro["macro_steps"],
        "stream_histograms": len(stream.histograms),
    }
    emit(
        f"stream on macro week: dark {dark_s * 1e3:.0f} ms, streamed "
        f"{enabled_s * 1e3:.0f} ms ({overhead:+.1%}, {cycles} cycles, "
        "results bit-for-bit)"
    )
