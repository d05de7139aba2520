"""Measurement instruments.

* :class:`PowerAnalyzer` — the Keysight N6705B/N6781A substitute: samples
  the platform-power trace at a fixed interval (50 us in the paper's
  setup) and reports per-window statistics.
* :mod:`repro.measure.residency` — the performance-counter-monitor
  substitute: state residencies and per-state energy from the trace,
  all priced by :class:`~repro.measure.residency.CyclePrice`.
"""

from repro.measure.analyzer import AnalyzerReading, PowerAnalyzer
from repro.measure.residency import ResidencyReport, residency_report

__all__ = [
    "AnalyzerReading",
    "PowerAnalyzer",
    "ResidencyReport",
    "residency_report",
]
