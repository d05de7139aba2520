"""Batched flow segments against per-change evaluation, over generated runs.

``FlowController._batched`` evaluates the power tree once per flow
segment.  The reference replaces it with a pass-through, so every
component change re-evaluates the tree.  Both must give equal
``StandbyResult``s and the same last value at every (channel, instant)
of the ``platform``, ``rail:*`` and ``state`` channels: batching may drop
only values that hold for zero simulated time, and every power sample it
keeps after t = 0 holds the reference's level at its instant.

Wall budget: 4 s for this module (about 3 s on a 2-core Xeon host).
"""

from hypothesis import given, settings, strategies as st
import pytest

from repro.config import StandbyWorkloadConfig
from repro.core.odrips import ODRIPSController
from repro.core.techniques import TechniqueSet
from repro.measure.residency import integrate_joules
from repro.processor.cstates import CState
from repro.system.flows import FlowController
from repro.system.states import STATE_CHANNEL

from _platform import build_platform, small_context_config

TECHNIQUES = {
    "baseline": TechniqueSet.baseline,
    "wake-up-off": TechniqueSet.wake_up_off_only,
    "aon-io-gate": TechniqueSet.with_io_gating,
    "ctx-sgx-dram": TechniqueSet.ctx_sgx_dram_only,
    "odrips": TechniqueSet.odrips,
    "odrips-mram": TechniqueSet.odrips_mram,
    "odrips-pcm": TechniqueSet.odrips_pcm,
}


class _Capturing(ODRIPSController):
    """Keeps the platform it builds, for the trace comparison."""

    def build_platform(self, **platform_kwargs):
        self.platform = super().build_platform(**platform_kwargs)
        return self.platform


def _samples(trace):
    """Every (channel, instant, value) of the power and state channels."""
    for channel in trace.channels():
        if channel in ("platform", STATE_CHANNEL) or channel.startswith("rail:"):
            for sample in trace.samples(channel):
                yield channel, sample.time_ps, sample.value


def _last_values(trace):
    """Last recorded value per (channel, instant) of the power and state channels."""
    return {(channel, time_ps): value for channel, time_ps, value in _samples(trace)}


def _stale_power_samples(trace, reference_last):
    """Power samples after t = 0 that differ from the reference's level there.

    Construction, boot and the first flow step are separate batches at
    t = 0, so that instant may keep intermediate levels.  The ``state``
    channel is not batched and is left out.
    """
    return [
        (channel, time_ps, value)
        for channel, time_ps, value in _samples(trace)
        if channel != STATE_CHANNEL
        and time_ps > 0
        and reference_last[channel, time_ps] != value
    ]


def _unbatched(run):
    """Run ``run()`` with the flow helper as a pass-through."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FlowController, "_batched", lambda self, body: body)
        return run()


@given(
    technique=st.sampled_from(sorted(TECHNIQUES)),
    seed=st.integers(0, 2**16),
    external_wakes=st.booleans(),
    wakes_per_hour=st.sampled_from([4.0, 360.0]),
    macro=st.booleans(),
    cycles=st.integers(2, 6),
)
@settings(max_examples=50, deadline=None)
def test_batched_standby_run_matches_per_change_evaluation(
    technique, seed, external_wakes, wakes_per_hour, macro, cycles
):
    workload = StandbyWorkloadConfig(external_wake_rate_per_hour=wakes_per_hour, seed=seed)

    def run():
        controller = _Capturing(
            TECHNIQUES[technique](), config=small_context_config(), workload=workload
        )
        result = controller.measure_raw(
            cycles=cycles, external_wakes=external_wakes, macro=macro
        )
        return result, controller.platform

    batched, batched_platform = run()
    reference, reference_platform = _unbatched(run)
    assert batched == reference
    reference_last = _last_values(reference_platform.trace)
    assert _last_values(batched_platform.trace) == reference_last
    # no same-instant intermediate level, macro span ends included
    assert _stale_power_samples(batched_platform.trace, reference_last) == []
    # batching only ever removes samples
    assert len(batched_platform.trace) <= len(reference_platform.trace)


@given(
    technique=st.sampled_from(sorted(TECHNIQUES)),
    state=st.sampled_from([CState.C2, CState.C6, CState.C8]),
    wake_delay_us=st.integers(1, 50_000),
)
@settings(max_examples=20, deadline=None)
def test_batched_shallow_idle_matches_per_change_evaluation(technique, state, wake_delay_us):
    def run():
        platform = build_platform(TECHNIQUES[technique](), small_context=True)
        flows = FlowController(platform)
        platform.boot()
        flows.request_shallow_idle(state, wake_delay_s=wake_delay_us * 1e-6)
        platform.kernel.run(max_events=10_000)
        return platform

    batched = run()
    reference = _unbatched(run)
    end_ps = reference.kernel.now
    assert batched.kernel.now == end_ps
    assert integrate_joules(batched.trace, "platform", 0, end_ps) == integrate_joules(
        reference.trace, "platform", 0, end_ps
    )
    reference_last = _last_values(reference.trace)
    assert _last_values(batched.trace) == reference_last
    assert _stale_power_samples(batched.trace, reference_last) == []


def test_ten_cycle_baseline_measure_evaluates_once_per_segment():
    """217 evaluations and 1,432 samples when every change re-evaluated."""
    controller = _Capturing(TechniqueSet.baseline())
    controller.measure(cycles=10)
    trace = controller.platform.trace
    assert len(trace.samples("platform")) <= 80  # one per tree evaluation
    assert len(trace) <= 647
