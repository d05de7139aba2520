"""Generic parameter-sweep helper for the figure benches.

Every sweep point is an independent simulation of a deterministic
platform model, so :func:`sweep` can optionally fan the points out over
a :class:`concurrent.futures.ProcessPoolExecutor` — the evaluation style
of Fig. 6(b)/(c), the sensitivity grids, and the residency sweeps.  The
parallel mode returns results in parameter order, identical to the
serial path.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, List, Optional, Tuple, TypeVar

from repro.effects import declares_effects
from repro.errors import AnalysisError
from repro.obs.hook import active
from repro.obs.runlog import host_wall_s

Value = TypeVar("Value")

#: Reference magnitudes at or below this are treated as zero when
#: normalizing sweep results (no exact float equality on measured
#: quantities — the S403 discipline).
ZERO_REFERENCE_TOLERANCE = 1e-12


class _TimedCall:
    """Picklable wrapper timing one sweep point inside a worker process.

    Used while a flight recorder is installed: the wrapper rides the same
    pickle channel as ``experiment`` itself, and each worker reports
    ``(result, wall_s, pid)`` so the parent can attribute per-point host
    time and worker fan-out to the run record.
    """

    __slots__ = ("experiment",)

    def __init__(self, experiment: Callable[[Value], float]) -> None:
        self.experiment = experiment

    @declares_effects("time", "identity")  # per-point wall time + worker pid
    def __call__(self, value: Value) -> Tuple[float, float, int]:
        start_s = host_wall_s()
        result = self.experiment(value)
        return result, host_wall_s() - start_s, os.getpid()


@declares_effects("time", "env")  # fan-out timing + cpu_count worker sizing
def sweep(
    parameter_values: Iterable[Value],
    experiment: Callable[[Value], float],
    parallel: bool = False,
    max_workers: Optional[int] = None,
) -> List[Tuple[Value, float]]:
    """Run ``experiment`` at each parameter value; collect the results.

    With ``parallel=True`` the points run concurrently in worker
    processes (each sweep point is an independent simulation), still
    returning ``(value, result)`` pairs in parameter order.  The
    ``experiment`` callable and the parameter values must be picklable —
    a module-level function or a :func:`functools.partial` of one, not a
    lambda or closure.

    On a single-CPU host a ``parallel=True`` request without an explicit
    ``max_workers`` degrades to the serial path — a one-worker process
    pool only adds pickling and fork overhead.  The run record notes the
    degradation as ``backend: "serial-fallback"``; passing ``max_workers``
    explicitly still forces a pool of that size.

    When a flight recorder is installed
    (``obs.observe(recorder=...)``) the sweep contributes its
    fan-out shape — point count, parallelism, backend, per-point wall
    times, and the worker process ids that served them — to the
    enclosing run record.
    """
    values = list(parameter_values)
    recorder = active().recorder
    start_s = host_wall_s() if recorder is not None else 0.0
    serial_fallback = (
        parallel
        and len(values) > 1
        and max_workers is None
        and (os.cpu_count() or 1) == 1
    )
    if not parallel or len(values) <= 1 or serial_fallback:
        backend = "serial-fallback" if serial_fallback else "serial"
        if recorder is None:
            return [(value, experiment(value)) for value in values]
        timed = _TimedCall(experiment)
        outcomes = [timed(value) for value in values]
        recorder.sweep(
            points=len(values),
            parallel=False,
            workers=None,
            wall_s=host_wall_s() - start_s,
            point_walls_s=[wall_s for _, wall_s, _ in outcomes],
            worker_pids=[pid for _, _, pid in outcomes],
            backend=backend,
        )
        return [(value, result) for value, (result, _, _) in zip(values, outcomes)]
    from concurrent.futures import ProcessPoolExecutor

    workers = max_workers if max_workers is not None else min(len(values), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        if recorder is None:
            results = list(pool.map(experiment, values))
            return list(zip(values, results))
        outcomes = list(pool.map(_TimedCall(experiment), values))
    recorder.sweep(
        points=len(values),
        parallel=True,
        workers=workers,
        wall_s=host_wall_s() - start_s,
        point_walls_s=[wall_s for _, wall_s, _ in outcomes],
        worker_pids=[pid for _, _, pid in outcomes],
        backend="parallel",
    )
    return [(value, result) for value, (result, _, _) in zip(values, outcomes)]


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
