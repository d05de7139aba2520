"""Performance infrastructure: memoized experiments and fingerprints.

The evaluation is sweep-heavy — the figure benches and analyses re-run
the same deterministic simulations (the baseline standby run above all)
with identical configurations.  This package provides:

* :func:`~repro.perf.fingerprint.fingerprint` — a deterministic,
  content-addressed digest of any configuration tree (frozen dataclasses,
  enums, technique sets, plain values);
* :class:`~repro.perf.cache.SimulationCache` — an in-memory memo keyed by
  those fingerprints, threaded through
  :class:`~repro.core.odrips.ODRIPSController` and the experiment
  drivers so repeated configurations simulate once.

Independent sweep points run in worker processes wherever the process
may use two or more CPUs — :func:`repro.analysis.sweep.sweep` picks the
path itself; see
docs/PERF.md for the design and the microbenchmark harness.
"""

from repro.perf.cache import CacheStats, SimulationCache
from repro.perf.fingerprint import canonical, fingerprint

__all__ = [
    "CacheStats",
    "SimulationCache",
    "canonical",
    "fingerprint",
]
