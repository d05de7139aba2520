"""The one observation hook: which sinks watch the current run.

A run is watched through up to three sinks at once — the simulated-time
:class:`~repro.obs.tracer.Tracer`, the host-phase
:class:`~repro.obs.profile.PhaseProfiler` and the flight-recorder
:class:`~repro.obs.runlog.RunRecorder`.  :func:`observe` installs any
of them for the duration of a ``with`` block; :func:`active` is what the
instrumented seams read::

    from repro import obs

    tracer = obs.Tracer()
    with obs.observe(tracer=tracer):
        ODRIPSController(TechniqueSet.odrips()).measure(cycles=1)

Blocks nest: a sink not passed to an inner :func:`observe` is inherited
from the enclosing one, and every exit (an exception included) restores
the enclosing observation.  With nothing installed :func:`active`
returns a shared empty :class:`Observation`, so a seam pays one call and
one ``None`` test per sink it reads.

Each seam reads the hook at a fixed point: a platform captures the
tracer when it is constructed, and ``ODRIPSController.measure`` reads
the recorder once per call.  Observation never perturbs simulated time and
is excluded from the :mod:`repro.perf` configuration fingerprints.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from repro.effects import declares_effects

if TYPE_CHECKING:
    from repro.obs.profile import PhaseProfiler
    from repro.obs.runlog import RunRecorder
    from repro.obs.tracer import Tracer


@dataclass(frozen=True)
class Observation:
    """The sinks watching the current run; ``None`` marks an absent sink."""

    tracer: Optional[Tracer] = None
    profiler: Optional[PhaseProfiler] = None
    recorder: Optional[RunRecorder] = None


_current = Observation()


def active() -> Observation:
    """The current observation (an empty one when nothing is installed)."""
    return _current


@contextmanager
@declares_effects("module-state")  # the process-wide opt-in hook itself
def observe(
    *,
    tracer: Optional[Tracer] = None,
    profiler: Optional[PhaseProfiler] = None,
    recorder: Optional[RunRecorder] = None,
) -> Iterator[Observation]:
    """Install the given sinks for a block, inheriting the rest.

    Yields the installed :class:`Observation`.  On exit the enclosing
    observation is restored, and a profiler this block installed is
    closed (stopping the tracemalloc session it started).
    Already-built platforms keep the tracer they captured.
    """
    global _current
    previous = _current
    _current = Observation(
        tracer=tracer if tracer is not None else previous.tracer,
        profiler=profiler if profiler is not None else previous.profiler,
        recorder=recorder if recorder is not None else previous.recorder,
    )
    try:
        yield _current
    finally:
        _current = previous
        if profiler is not None:
            profiler.close()
