"""Generic parameter-sweep helper for the figure benches.

Every sweep point is an independent simulation of a deterministic
platform model — the evaluation style of Fig. 6(b)/(c) and the residency
sweeps — so :func:`sweep` fans the points out over a
:class:`concurrent.futures.ProcessPoolExecutor` wherever the process
may use two or more CPUs.  Results come back in parameter order,
identical to running the points in-process.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, List, Optional, Tuple, TypeVar

from repro.effects import declares_effects
from repro.errors import AnalysisError
from repro.obs.hook import active, observe
from repro.obs.runlog import RunRecorder, host_wall_s

Value = TypeVar("Value")

#: Reference magnitudes at or below this are treated as zero when
#: normalizing sweep results (no exact float equality on measured
#: quantities — the S403 discipline).
ZERO_REFERENCE_TOLERANCE = 1e-12


class _TimedCall:
    """Picklable wrapper running one sweep point under its own recorder.

    The wrapper rides the same pickle channel as ``experiment`` itself.
    Each call reports ``(result, wall_s, pid, recorder)``: the point's
    host wall time, the process that ran it, and the
    :class:`~repro.obs.runlog.RunRecorder` holding the measurements the
    point contributed, which the parent folds into its own record.
    """

    __slots__ = ("experiment",)

    def __init__(self, experiment: Callable[[Value], float]) -> None:
        self.experiment = experiment

    @declares_effects("time", "identity")  # per-point wall time + worker pid
    def __call__(self, value: Value) -> Tuple[float, float, int, RunRecorder]:
        recorder = RunRecorder()
        start_s = host_wall_s()
        with observe(recorder=recorder):
            result = self.experiment(value)
        return result, host_wall_s() - start_s, os.getpid(), recorder


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one.

    ``os.cpu_count()`` counts the host's CPUs, so a process pinned to one
    core of a many-core host would otherwise fork workers that take turns
    on that core.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@declares_effects("time", "env")  # fan-out timing + usable-CPU worker sizing
def sweep(
    parameter_values: Iterable[Value],
    experiment: Callable[[Value], float],
) -> List[Tuple[Value, float]]:
    """Run ``experiment`` at each parameter value; collect the results.

    The points run in ``min(points, usable CPUs)`` worker processes when
    there are at least two points and this process may use at least two
    CPUs (its affinity mask, not the host's count), and no tracer or
    profiler is installed (those sinks live in this process and cannot
    see worker spans); otherwise they run in-process.  Either way the
    ``(value, result)`` pairs come back in parameter order.  The
    ``experiment`` callable and the parameter values must be picklable —
    a module-level function or a :func:`functools.partial` of one, not a
    lambda or closure.

    Under the ``spawn`` and ``forkserver`` start methods (macOS, Windows,
    and Linux from Python 3.14) each worker re-imports the main module,
    so a script that calls a sweep driver needs an
    ``if __name__ == "__main__":`` guard.

    When a flight recorder is installed (``obs.observe(recorder=...)``)
    each point's measurements are folded into it in point order, and
    the sweep contributes its fan-out shape — point count, worker count
    (``None`` in-process), per-point wall times and the process ids that
    served them — to the enclosing run record.
    """
    values = list(parameter_values)
    observation = active()
    start_s = host_wall_s()
    workers: Optional[int] = min(len(values), _usable_cpus())
    timed = _TimedCall(experiment)
    if workers < 2 or observation.tracer is not None or observation.profiler is not None:
        workers = None
        outcomes = [timed(value) for value in values]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(timed, values))
    recorder = observation.recorder
    if recorder is not None:
        for _, _, _, point in outcomes:
            recorder.fold(point)
        recorder.sweep(
            points=len(values),
            workers=workers,
            wall_s=host_wall_s() - start_s,
            point_walls_s=[wall_s for _, wall_s, _, _ in outcomes],
            worker_pids=[pid for _, _, pid, _ in outcomes],
        )
    return [(value, outcome[0]) for value, outcome in zip(values, outcomes)]


def relative_to_first(points: List[Tuple[Value, float]]) -> List[Tuple[Value, float]]:
    """Convert absolute results into fractions of the first point.

    Used for the Fig. 6(b)/(c) sweeps, which the paper reports as deltas
    against the leftmost (baseline) configuration.

    Raises :class:`~repro.errors.AnalysisError` when the reference point
    is zero to within :data:`ZERO_REFERENCE_TOLERANCE` — the
    normalization is undefined there.
    """
    if not points:
        return []
    reference = points[0][1]
    if abs(reference) <= ZERO_REFERENCE_TOLERANCE:
        raise AnalysisError(
            f"cannot normalize sweep results: first sweep point is zero "
            f"to within {ZERO_REFERENCE_TOLERANCE:g} (got {reference!r})"
        )
    return [(value, result / reference - 1.0) for value, result in points]
