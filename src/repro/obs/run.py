"""Observed experiment runs: one command, one tracer, one energy ledger.

:func:`run_traced` is the engine behind ``python -m repro trace``: it
installs a fresh :class:`~repro.obs.tracer.Tracer`, runs one
connected-standby measurement for a named configuration, and digests the
observation into a :class:`TraceSession` — tracer, instrumented
platform, measurement, and an :class:`~repro.obs.ledger.EnergyLedger`
over the measurement window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.core.odrips import ODRIPSController, StandbyMeasurement
from repro.core.techniques import TechniqueSet
from repro.errors import ConfigError, MeasurementError
from repro.obs.ledger import EnergyLedger
from repro.obs.hook import observe
from repro.obs.tracer import FLOW_STEP_TRACK, Tracer

#: Traceable configurations: single-measurement technique sets.  ``fig2``
#: is the paper's baseline standby run; the rest are the Fig. 6(a)/(d)
#: technique combinations.
TRACE_CONFIGS: Dict[str, Callable[[], TechniqueSet]] = {
    "fig2": TechniqueSet.baseline,
    "baseline": TechniqueSet.baseline,
    "wake-up-off": TechniqueSet.wake_up_off_only,
    "aon-io-gate": TechniqueSet.with_io_gating,
    "ctx": TechniqueSet.ctx_sgx_dram_only,
    "odrips": TechniqueSet.odrips,
    "odrips-mram": TechniqueSet.odrips_mram,
    "odrips-pcm": TechniqueSet.odrips_pcm,
}


@dataclass
class TraceSession:
    """Everything one observed run produced."""

    experiment: str
    tracer: Tracer
    platform: object
    measurement: StandbyMeasurement
    ledger: EnergyLedger


def run_traced(
    experiment: str,
    cycles: int = 2,
    idle_interval_s: Optional[float] = None,
) -> TraceSession:
    """Run ``experiment`` under a fresh tracer and build its ledger.

    The ledger integrates the platform's per-rail power channels over the
    measurement window (the same wake-to-wake window the runner reports)
    and attributes flow-step spans to domains.
    """
    factory = TRACE_CONFIGS.get(experiment)
    if factory is None:
        known = ", ".join(sorted(TRACE_CONFIGS))
        raise ConfigError(f"unknown trace target {experiment!r}; pick one of: {known}")
    tracer = Tracer()
    with observe(tracer=tracer):
        controller = ODRIPSController(factory())
        measurement = controller.measure(cycles=cycles, idle_interval_s=idle_interval_s)
    if not tracer.platforms:
        raise MeasurementError("observed run built no instrumented platform")
    if tracer.window_ps is None:
        raise MeasurementError("observed run recorded no measurement window")
    platform = tracer.platforms[-1]
    start_ps, end_ps = tracer.window_ps
    ledger = EnergyLedger.from_trace(
        platform.trace,
        start_ps,
        end_ps,
        spans=tracer.closed_spans(FLOW_STEP_TRACK),
    )
    return TraceSession(
        experiment=experiment,
        tracer=tracer,
        platform=platform,
        measurement=measurement,
        ledger=ledger,
    )
