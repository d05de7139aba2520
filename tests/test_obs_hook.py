"""The one observation hook: nesting, restore-on-exit, and purity.

Every nesting case runs twice — once with the inner block exiting
normally and once with it raising — because an exception must restore
the enclosing observation exactly like a clean exit does.
"""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro.core.odrips import ODRIPSController
from repro.core.techniques import TechniqueSet
from repro.obs.hook import Observation, active, observe
from repro.obs.profile import PhaseProfiler
from repro.obs.runlog import RunRecorder
from repro.obs.tracer import Tracer
from repro.perf.fingerprint import canonical


class _Boom(Exception):
    pass


@pytest.fixture(params=[False, True], ids=["clean-exit", "inner-raises"])
def run_inner(request):
    """Run ``body`` inside ``observe(**sinks)``, raising out of it on demand."""

    def run(body, **sinks):
        try:
            with observe(**sinks) as observation:
                body(observation)
                if request.param:
                    raise _Boom
        except _Boom:
            pass

    return run


class TestNesting:
    def test_inner_tracer_restores_outer_tracer(self, run_inner):
        outer, inner = Tracer(), Tracer()
        with observe(tracer=outer):
            seen = []
            run_inner(lambda o: seen.append(o.tracer), tracer=inner)
            assert seen == [inner]
            assert active().tracer is outer

    def test_inner_tracer_keeps_outer_recorder(self, run_inner):
        recorder = RunRecorder()
        with observe(recorder=recorder):
            seen = []
            run_inner(lambda o: seen.append(o), tracer=Tracer())
            assert seen[0].recorder is recorder
            assert active() == Observation(recorder=recorder)

    def test_installed_profiler_is_closed_on_exit(self, run_inner):
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc already running; the profiler would not own it")
        outer = PhaseProfiler(track_allocations=True)
        with observe(profiler=outer):
            # an inner block that inherits the profiler must not close it
            run_inner(lambda o: None, tracer=Tracer())
            assert tracemalloc.is_tracing()
        assert not tracemalloc.is_tracing()

        inner = PhaseProfiler(track_allocations=True)
        run_inner(lambda o: None, profiler=inner)
        assert not tracemalloc.is_tracing()

    def test_outermost_exit_leaves_nothing_installed(self, run_inner):
        with observe(tracer=Tracer(), recorder=RunRecorder()):
            run_inner(lambda o: None, tracer=Tracer(), recorder=RunRecorder())
        assert active().tracer is None
        assert active() == Observation()


def _measurement_bytes(measurement):
    return json.dumps(canonical(vars(measurement)), sort_keys=True)


class TestAllSinksPurity:
    @pytest.mark.parametrize("macro", [False, True], ids=["exact", "macro"])
    @pytest.mark.parametrize(
        "techniques", [TechniqueSet.baseline, TechniqueSet.odrips_mram],
        ids=["baseline", "odrips-mram"],
    )
    def test_measurement_identical_under_every_sink(self, techniques, macro):
        cycles = 12
        dark = ODRIPSController(techniques()).measure(cycles=cycles, macro=macro)
        tracer, profiler = Tracer(), PhaseProfiler()
        recorder = RunRecorder()
        with observe(tracer=tracer, profiler=profiler, recorder=recorder):
            lit = ODRIPSController(techniques()).measure(cycles=cycles, macro=macro)
        assert lit == dark
        assert _measurement_bytes(lit) == _measurement_bytes(dark)
        if macro:
            assert lit.macro["cycles_compiled"] > 0
        # every sink did watch the run
        assert tracer.platforms and tracer.window_ps is not None
        assert profiler.stats()["simulate"].count == 1
        recorder.finish("purity")
        assert recorder.records[0]["measurements"][0]["label"] == lit.label
