"""repro.obs — structured tracing, metrics, and energy attribution.

The observability layer of the reproduction: a span/event
:class:`Tracer` stamped in simulated time, a
:class:`~repro.obs.metrics.MetricsRegistry` of counters/gauges/
histograms, an :class:`EnergyLedger` attributing per-domain energy to
flow steps, and exporters for Chrome trace JSON (Perfetto), JSONL, and
terminal summaries.  Two host-side companions watch the repo itself: the
:mod:`~repro.obs.runlog` flight recorder (one JSON record per experiment
run under ``.repro/runs/``, consumed by ``python -m repro report``) and
the :mod:`~repro.obs.profile` phase profiler (host wall time and peak
allocations per build/simulate/measure/analyze phase).

All three sinks are installed through one hook (:mod:`repro.obs.hook`):
:func:`observe` installs any of them for a ``with`` block, inheriting
the rest from the enclosing block, and :func:`active` is what the
instrumented seams read.

Quick start::

    from repro import obs
    from repro.core import ODRIPSController, TechniqueSet

    tracer = obs.Tracer()
    with obs.observe(tracer=tracer):
        ODRIPSController(TechniqueSet.odrips()).measure(cycles=1)
    print(obs.render_summary(tracer))
    obs.write_chrome_trace(tracer, "trace.json", platform=tracer.platforms[-1])

Instrumentation is opt-in and zero-cost when disabled: the hot seams
guard on one ``obs is not None`` attribute check, and observation never
perturbs simulated time or the :mod:`repro.perf` cache fingerprints.

The exporters and the traced runner are loaded lazily (PEP 562): the
instrumented modules (kernel, flows, PMU, cache, analyzer) import
:mod:`repro.obs.tracer` at module scope, and an eager import of
:mod:`repro.obs.run` here would close an import cycle back through
:mod:`repro.core`.
"""

from repro.obs.hook import Observation, active, observe
from repro.obs.ledger import EnergyLedger, LedgerCell
from repro.obs.metrics import (
    BoundedHistogram,
    Counter,
    Gauge,
    MetricsRegistry,
)
from repro.obs.tracer import (
    FLOW_STEP_TRACK,
    FLOW_TRACK,
    KERNEL_TRACK,
    MACRO_TRACK,
    MEASURE_TRACK,
    PMU_TRACK,
    WAKE_TRACK,
    CausalEdge,
    Instant,
    Span,
    Tracer,
)

#: Lazily-resolved public names -> defining module (import-cycle guard).
_LAZY = {
    "chrome_trace": "repro.obs.export",
    "jsonl_lines": "repro.obs.export",
    "render_profile": "repro.obs.export",
    "render_summary": "repro.obs.export",
    "write_chrome_trace": "repro.obs.export",
    "write_jsonl": "repro.obs.export",
    "TRACE_CONFIGS": "repro.obs.run",
    "TraceSession": "repro.obs.run",
    "run_traced": "repro.obs.run",
    "CausalReport": "repro.obs.causal",
    "attribution_cells": "repro.obs.causal",
    "build_causal_report": "repro.obs.causal",
    "flow_critical_paths": "repro.obs.causal",
    "wake_cause": "repro.obs.causal",
    "EXPLAIN_SCHEMA": "repro.obs.diff",
    "RunProfile": "repro.obs.diff",
    "diff_profiles": "repro.obs.diff",
    "explain_history": "repro.obs.diff",
    "explain_simulate": "repro.obs.diff",
    "profile_config": "repro.obs.diff",
    "render_explain": "repro.obs.diff",
    "validate_explain_payload": "repro.obs.diff",
    "PhaseProfiler": "repro.obs.profile",
    "host_phase": "repro.obs.profile",
    "RunLog": "repro.obs.runlog",
    "RunRecorder": "repro.obs.runlog",
    "git_revision": "repro.obs.runlog",
}

__all__ = [
    "BoundedHistogram",
    "CausalEdge",
    "CausalReport",
    "Counter",
    "EXPLAIN_SCHEMA",
    "EnergyLedger",
    "FLOW_STEP_TRACK",
    "FLOW_TRACK",
    "Gauge",
    "Instant",
    "KERNEL_TRACK",
    "LedgerCell",
    "MACRO_TRACK",
    "MEASURE_TRACK",
    "MetricsRegistry",
    "Observation",
    "PMU_TRACK",
    "PhaseProfiler",
    "RunLog",
    "RunProfile",
    "RunRecorder",
    "Span",
    "TRACE_CONFIGS",
    "TraceSession",
    "Tracer",
    "WAKE_TRACK",
    "active",
    "attribution_cells",
    "build_causal_report",
    "chrome_trace",
    "diff_profiles",
    "explain_history",
    "explain_simulate",
    "flow_critical_paths",
    "git_revision",
    "host_phase",
    "jsonl_lines",
    "observe",
    "profile_config",
    "render_explain",
    "render_profile",
    "render_summary",
    "run_traced",
    "validate_explain_payload",
    "wake_cause",
    "write_chrome_trace",
    "write_jsonl",
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
