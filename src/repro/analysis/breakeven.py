"""Break-even analysis (the blue line of Fig. 6(a)).

The paper determines each technique's break-even point by sweeping the
DRIPS residency from 0.6 ms to 1 s and finding the residency where the
technique's connected-standby average power first drops below the
baseline's (Sec. 7).  Here the actual simulator runs the periodic (fixed
wake grid) schedule at two residencies, and a two-point fit of the
per-cycle energy saving solves for the crossing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Tuple

from repro.analysis.sweep import sweep
from repro.config import PlatformConfig, StandbyWorkloadConfig
from repro.core.odrips import ODRIPSController
from repro.core.techniques import TechniqueSet
from repro.errors import ConfigError

#: Default maintenance burst for sweeps (paper: 100-300 ms; we pin the
#: mean so runs are deterministic).
SWEEP_MAINTENANCE_S = 0.145

#: Baseline transition allowance added to the period (entry + exit).
BASE_TRANSITIONS_S = 0.0005


@dataclass(frozen=True)
class BreakEvenResult:
    """Outcome of a break-even search for one technique set."""

    label: str
    break_even_s: float
    #: The two fit points: ``(idle_a, saving_a_j, drips_saving_w)`` and
    #: ``(idle_b, saving_b_j, overhead_j)``.
    sweep_points: Tuple[Tuple[float, float, float], ...]

    @property
    def break_even_ms(self) -> float:
        return self.break_even_s * 1e3


def _average_at(
    techniques: TechniqueSet,
    idle_s: float,
    cycles: int,
    config: Optional[PlatformConfig],
    maintenance_s: float,
) -> float:
    period = maintenance_s + BASE_TRANSITIONS_S + idle_s
    controller = ODRIPSController(techniques, config=config)
    measurement = controller.measure(
        cycles=cycles,
        maintenance_s=maintenance_s,
        period_s=period,
        idle_interval_s=idle_s,
    )
    return measurement.average_power_w


def _cycle_energy(
    techniques: TechniqueSet,
    idle_s: float,
    cycles: int,
    config: Optional[PlatformConfig],
    maintenance_s: float,
) -> float:
    """Average joules per connected-standby cycle at ``idle_s`` residency."""
    period = maintenance_s + BASE_TRANSITIONS_S + idle_s
    controller = ODRIPSController(techniques, config=config)
    result = controller.measure_raw(
        cycles=cycles, idle_interval_s=idle_s, maintenance_s=maintenance_s, period_s=period
    )
    return result.residency.total_energy_j() / cycles


def find_break_even(
    techniques: TechniqueSet,
    config: Optional[PlatformConfig] = None,
    idle_points_s: Tuple[float, float] = (0.020, 0.060),
    cycles: int = 4,
    maintenance_s: float = SWEEP_MAINTENANCE_S,
) -> BreakEvenResult:
    """Locate the break-even residency via a two-point energy fit.

    Per cycle, the technique changes the energy by
    ``dE_overhead - dP_drips * idle``; measuring the cycle-energy saving
    at two residencies solves for both terms, and the break-even is
    ``dE_overhead / dP_drips`` — far more precise than bisecting the
    noisy average-power crossing, and what the fixed-period sweep of
    Sec. 7 measures in the limit.

    Raises :class:`ConfigError` when the technique set is the baseline
    (there is nothing to compare).
    """
    if techniques.is_baseline:
        raise ConfigError("break-even of the baseline against itself is undefined")
    baseline = TechniqueSet.baseline()
    idle_a, idle_b = idle_points_s
    if idle_b <= idle_a:
        raise ConfigError("idle points must be increasing")
    saving_a = _cycle_energy(baseline, idle_a, cycles, config, maintenance_s) - \
        _cycle_energy(techniques, idle_a, cycles, config, maintenance_s)
    saving_b = _cycle_energy(baseline, idle_b, cycles, config, maintenance_s) - \
        _cycle_energy(techniques, idle_b, cycles, config, maintenance_s)
    drips_saving_w = (saving_b - saving_a) / (idle_b - idle_a)
    if drips_saving_w <= 0:
        raise ConfigError(
            f"{techniques.label()} does not reduce DRIPS power; no break-even"
        )
    overhead_j = drips_saving_w * idle_a - saving_a
    break_even_s = max(0.0, overhead_j / drips_saving_w)
    points = (
        (idle_a, saving_a, drips_saving_w),
        (idle_b, saving_b, overhead_j),
    )
    return BreakEvenResult(
        label=techniques.label(),
        break_even_s=break_even_s,
        sweep_points=points,
    )


def _residency_point(
    idle_s: float,
    techniques: TechniqueSet,
    config: Optional[PlatformConfig],
    cycles: int,
    maintenance_s: float,
) -> Tuple[float, float]:
    """Module-level (picklable) sweep point: baseline and technique watts."""
    base_w = _average_at(TechniqueSet.baseline(), idle_s, cycles, config, maintenance_s)
    tech_w = _average_at(techniques, idle_s, cycles, config, maintenance_s)
    return base_w, tech_w


def residency_sweep(
    techniques: TechniqueSet,
    residencies_s: List[float],
    config: Optional[PlatformConfig] = None,
    cycles: int = 3,
    maintenance_s: float = SWEEP_MAINTENANCE_S,
) -> List[Tuple[float, float, float]]:
    """Average power of baseline and technique at each residency.

    Returns ``(residency_s, baseline_w, technique_w)`` tuples — the raw
    data behind the Fig. 6(a) break-even line.  Each point is a pair of
    independent simulations, run by :func:`sweep`.
    """
    points = sweep(
        residencies_s,
        partial(
            _residency_point,
            techniques=techniques,
            config=config,
            cycles=cycles,
            maintenance_s=maintenance_s,
        ),
    )
    return [(idle_s, base_w, tech_w) for idle_s, (base_w, tech_w) in points]
