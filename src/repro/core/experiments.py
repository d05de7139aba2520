"""One driver per table/figure of the paper's evaluation.

Each function runs the corresponding experiment on the simulator and
returns a structured result carrying both the measured values and the
paper's published values, so benches and ``EXPERIMENTS.md`` can print
paper-vs-measured side by side.

Index (see DESIGN.md for the full mapping):

* :func:`fig1b_breakdown` — DRIPS power breakdown.
* :func:`fig2_connected_standby` — baseline average power + residency.
* :func:`fig6a_techniques` — per-technique savings (and break-evens).
* :func:`fig6b_core_frequency` — core-frequency sweep.
* :func:`fig6c_dram_frequency` — DRAM-frequency sweep.
* :func:`fig6d_emerging_memories` — ODRIPS-MRAM / ODRIPS-PCM.
* :func:`sec63_context_latency` — 200 KB context save/restore latency.
* :func:`sec413_calibration` — Step register sizing (m=10, f=21).
* :func:`table1_parameters` — system parameters.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.config import (
    PlatformConfig,
    skylake_config,
    table1_rows,
)
from repro.core.odrips import ODRIPSController, StandbyMeasurement
from repro.core.techniques import TechniqueSet
from repro.analysis.breakdown import fig1b_shares
from repro.analysis.breakeven import find_break_even
from repro.analysis.sweep import sweep
from repro.obs.hook import active
from repro.obs.runlog import host_wall_s
from repro.perf.fingerprint import fingerprint
from repro.timers.calibration import (
    fractional_bits_for_precision,
    integer_bits_for_ratio,
    worst_case_drift_ppb,
)

if TYPE_CHECKING:
    from repro.perf.cache import SimulationCache


# ---------------------------------------------------------------------------
# Experiment registry and golden values
# ---------------------------------------------------------------------------

#: Golden-value comparison kinds understood by :meth:`GoldenValue.evaluate`
#: and the regression watchdog (:mod:`repro.regress`).
GOLDEN_KINDS = ("absolute", "relative", "ceiling", "floor")


@dataclass(frozen=True)
class GoldenValue:
    """One paper-published figure the watchdog holds a driver to.

    ``kind`` selects the tolerance policy:

    * ``absolute`` — ``|measured - paper| <= tolerance``;
    * ``relative`` — ``|measured - paper| <= tolerance * |paper|``;
    * ``ceiling`` — ``measured <= paper + tolerance``;
    * ``floor``   — ``measured >= paper - tolerance``.
    """

    key: str
    paper: float
    tolerance: float
    kind: str = "absolute"

    def within(self, measured: float) -> bool:
        if self.kind == "relative":
            return abs(measured - self.paper) <= self.tolerance * abs(self.paper)
        if self.kind == "ceiling":
            return measured <= self.paper + self.tolerance
        if self.kind == "floor":
            return measured >= self.paper - self.tolerance
        return abs(measured - self.paper) <= self.tolerance

    def evaluate(self, measured: Optional[float]) -> Dict[str, Any]:
        """JSON-able verdict: paper value, delta, and pass/fail."""
        verdict: Dict[str, Any] = {
            "paper": self.paper,
            "tolerance": self.tolerance,
            "kind": self.kind,
            "measured": measured,
        }
        if measured is None:
            verdict["delta"] = None
            verdict["within"] = None
        else:
            verdict["delta"] = measured - self.paper
            verdict["within"] = self.within(measured)
        return verdict


@dataclass(frozen=True)
class ExperimentSpec:
    """Registry entry for one experiment driver.

    ``metric_keys`` is the static declaration of the flat metric names
    the driver's ``metrics`` extractor produces under its *default*
    configuration; lint rule M307 verifies every golden key is declared
    there, so a driver cannot silently opt out of fidelity checking.
    ``golden_exempt`` carries a human-readable reason for the rare driver
    with nothing to compare (static parameter tables).
    """

    name: str
    runner: Callable[..., Any]
    metric_keys: Tuple[str, ...]
    metrics: Callable[[Any], Dict[str, float]]
    goldens: Tuple[GoldenValue, ...] = ()
    golden_exempt: str = ""

    def config_fingerprint(self, *args: Any, **kwargs: Any) -> str:
        """SHA-256 fingerprint of the driver's resolved arguments.

        Cache handles are excluded — a memoized run of a configuration is
        the *same* run — so records made with and without ``--cache``
        share a fingerprint.
        """
        bound = inspect.signature(self.runner).bind(*args, **kwargs)
        bound.apply_defaults()
        arguments = {
            key: value for key, value in bound.arguments.items() if key != "cache"
        }
        return fingerprint(self.name, arguments)

    def evaluate_goldens(self, metrics: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
        return {
            golden.key: golden.evaluate(metrics.get(golden.key))
            for golden in self.goldens
        }


#: Every registered experiment driver, keyed by its CLI/report name.
EXPERIMENTS: Dict[str, ExperimentSpec] = {}


def experiment_driver(
    name: str,
    metric_keys: Tuple[str, ...],
    metrics: Callable[[Any], Dict[str, float]],
    goldens: Tuple[GoldenValue, ...] = (),
    golden_exempt: str = "",
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a driver and wire it to the experiment flight recorder.

    With a :class:`~repro.obs.runlog.RunRecorder` installed, each call
    of the driver contributes one run record — config fingerprint, host
    wall time, extracted metrics, golden-value verdicts, cache stats and
    any pending measurement/sweep sub-events.  With no recorder
    installed the wrapper is a single ``None`` check.
    """

    def wrap(fn: Callable[..., Any]) -> Callable[..., Any]:
        spec = ExperimentSpec(
            name=name,
            runner=fn,
            metric_keys=tuple(metric_keys),
            metrics=metrics,
            goldens=tuple(goldens),
            golden_exempt=golden_exempt,
        )
        EXPERIMENTS[name] = spec

        @functools.wraps(fn)
        def recorded(*args: Any, **kwargs: Any) -> Any:
            recorder = active().recorder
            if recorder is None:
                return fn(*args, **kwargs)
            started_s = host_wall_s()
            result = fn(*args, **kwargs)
            wall_s = host_wall_s() - started_s
            values = spec.metrics(result)
            cache = kwargs.get("cache")
            cache_stats = None
            if cache is not None:
                cache_stats = {"hits": cache.stats.hits, "misses": cache.stats.misses}
            context = _scalar_context(spec, args, kwargs)
            recorder.experiment(
                name=name,
                fingerprint=spec.config_fingerprint(*args, **kwargs),
                wall_s=wall_s,
                metrics=values,
                goldens=spec.evaluate_goldens(values),
                context=context,
                cache_stats=cache_stats,
            )
            return result

        recorded.spec = spec  # introspection hook (lint, tests)
        return recorded

    return wrap


def _scalar_context(
    spec: ExperimentSpec, args: Tuple[Any, ...], kwargs: Dict[str, Any]
) -> Dict[str, Any]:
    """The scalar driver arguments, for humans reading the run log."""
    try:
        bound = inspect.signature(spec.runner).bind(*args, **kwargs)
    except TypeError:  # the driver itself will raise; record nothing
        return {}
    bound.apply_defaults()
    return {
        key: value
        for key, value in bound.arguments.items()
        if isinstance(value, (bool, int, float, str)) or value is None
    }


# ---------------------------------------------------------------------------
# Fig. 1(b)
# ---------------------------------------------------------------------------

#: Paper's Fig. 1(b) shares (fractions of platform DRIPS power).
FIG1B_PAPER = {
    "wakeup_and_crystal": 0.05,   # timer/monitor + 24 MHz crystal
    "aon_ios": 0.07,
    "sr_srams": 0.09,
    "processor_total": 0.18,
}


@dataclass
class Fig1bResult:
    platform_drips_mw: float
    shares: Dict[str, float]
    paper_shares: Dict[str, float] = field(default_factory=lambda: dict(FIG1B_PAPER))

    @property
    def wakeup_and_crystal(self) -> float:
        return self.shares.get("wakeup_timer_monitor", 0.0) + self.shares.get(
            "fast_crystal_24mhz", 0.0
        )

    @property
    def processor_total(self) -> float:
        return (
            self.shares.get("wakeup_timer_monitor", 0.0)
            + self.shares.get("aon_ios", 0.0)
            + self.shares.get("sr_srams", 0.0)
            + self.shares.get("pmu", 0.0)
            + self.shares.get("cke", 0.0)
        )


def _fig1b_metrics(result: "Fig1bResult") -> Dict[str, float]:
    return {
        "platform_drips_mw": result.platform_drips_mw,
        "wakeup_and_crystal": result.wakeup_and_crystal,
        "aon_ios": result.shares.get("aon_ios", 0.0),
        "sr_srams": result.shares.get("sr_srams", 0.0),
        "processor_total": result.processor_total,
    }


@experiment_driver(
    "fig1b",
    metric_keys=(
        "platform_drips_mw", "wakeup_and_crystal", "aon_ios", "sr_srams",
        "processor_total",
    ),
    metrics=_fig1b_metrics,
    goldens=(
        GoldenValue("platform_drips_mw", 60.0, 1.0),
        GoldenValue("wakeup_and_crystal", 0.05, 0.015),
        GoldenValue("aon_ios", 0.07, 0.015),
        GoldenValue("sr_srams", 0.09, 0.015),
        GoldenValue("processor_total", 0.18, 0.015),
    ),
)
def fig1b_breakdown(config: Optional[PlatformConfig] = None) -> Fig1bResult:
    """Reproduce the DRIPS power breakdown of Fig. 1(b)."""
    cfg = config if config is not None else skylake_config()
    shares = fig1b_shares(TechniqueSet.baseline(), cfg)
    return Fig1bResult(
        platform_drips_mw=cfg.budget.platform_total_w() * 1e3,
        shares=shares,
    )


# ---------------------------------------------------------------------------
# Fig. 2
# ---------------------------------------------------------------------------


@dataclass
class Fig2Result:
    average_power_mw: float
    drips_power_mw: float
    active_power_w: float
    drips_residency: float
    paper_drips_power_mw: float = 60.0
    paper_active_power_w: float = 3.0
    paper_drips_residency: float = 0.995


def _fig2_metrics(result: "Fig2Result") -> Dict[str, float]:
    return {
        "average_power_mw": result.average_power_mw,
        "drips_power_mw": result.drips_power_mw,
        "active_power_w": result.active_power_w,
        "drips_residency": result.drips_residency,
    }


@experiment_driver(
    "fig2",
    metric_keys=(
        "average_power_mw", "drips_power_mw", "active_power_w", "drips_residency",
    ),
    metrics=_fig2_metrics,
    goldens=(
        GoldenValue("drips_power_mw", 60.0, 1.5),
        GoldenValue("active_power_w", 3.0, 0.25),
        GoldenValue("drips_residency", 0.995, 0.003),
        GoldenValue("average_power_mw", 75.0, 5.0),
    ),
)
def fig2_connected_standby(
    config: Optional[PlatformConfig] = None,
    cycles: int = 2,
    cache: Optional["SimulationCache"] = None,
    macro: bool = False,
) -> Fig2Result:
    """Reproduce the connected-standby picture of Fig. 2 (baseline).

    ``cache`` memoizes the baseline standby run so other drivers (fig6a,
    fig6d, validation) sharing the cache reuse it.  ``macro`` enables the
    cycle-compiled macro-stepping engine (bit-for-bit identical results
    for this periodic workload; the flag is part of the cache key).
    """
    measurement = ODRIPSController(
        TechniqueSet.baseline(), config=config, cache=cache
    ).measure(cycles=cycles, macro=macro)
    return Fig2Result(
        average_power_mw=measurement.average_power_w * 1e3,
        drips_power_mw=measurement.drips_power_w * 1e3,
        active_power_w=measurement.active_power_w,
        drips_residency=measurement.drips_residency,
    )


# ---------------------------------------------------------------------------
# Fig. 6(a)
# ---------------------------------------------------------------------------

#: Paper's Fig. 6(a): average-power saving and break-even per bar.
FIG6A_PAPER = {
    "WAKE-UP-OFF": (0.06, 6.6e-3),
    "AON-IO-GATE": (0.13, 6.3e-3),
    "CTX-SGX-DRAM": (0.08, 7.4e-3),
    "ODRIPS": (0.22, 6.5e-3),
}

FIG6A_SETS: List[Tuple[str, TechniqueSet]] = [
    ("WAKE-UP-OFF", TechniqueSet.wake_up_off_only()),
    ("AON-IO-GATE", TechniqueSet.with_io_gating()),
    ("CTX-SGX-DRAM", TechniqueSet.ctx_sgx_dram_only()),
    ("ODRIPS", TechniqueSet.odrips()),
]


@dataclass
class Fig6aRow:
    label: str
    average_power_mw: float
    saving: float
    paper_saving: float
    break_even_ms: Optional[float]
    paper_break_even_ms: float


@dataclass
class Fig6aResult:
    baseline_mw: float
    rows: List[Fig6aRow]


def _fig6a_metrics(result: "Fig6aResult") -> Dict[str, float]:
    values: Dict[str, float] = {"baseline_mw": result.baseline_mw}
    for row in result.rows:
        values[f"saving:{row.label}"] = row.saving
    return values


@experiment_driver(
    "fig6a",
    metric_keys=(
        "baseline_mw", "saving:WAKE-UP-OFF", "saving:AON-IO-GATE",
        "saving:CTX-SGX-DRAM", "saving:ODRIPS",
    ),
    metrics=_fig6a_metrics,
    goldens=(
        GoldenValue("saving:WAKE-UP-OFF", 0.06, 0.02),
        GoldenValue("saving:AON-IO-GATE", 0.13, 0.02),
        GoldenValue("saving:CTX-SGX-DRAM", 0.08, 0.02),
        GoldenValue("saving:ODRIPS", 0.22, 0.02),
    ),
)
def fig6a_techniques(
    config: Optional[PlatformConfig] = None,
    cycles: int = 2,
    with_break_even: bool = False,
    cache: Optional["SimulationCache"] = None,
    macro: bool = False,
) -> Fig6aResult:
    """Reproduce the Fig. 6(a) bars (and, optionally, the blue line).

    ``with_break_even`` fits each bar's break-even residency from two
    fixed-period runs per configuration
    (:func:`~repro.analysis.breakeven.find_break_even`); it is off by
    default because it simulates extra configurations.
    ``cache`` memoizes each per-configuration run (the baseline run is
    shared with fig2/fig6d/validation when they use the same cache).
    """
    baseline = ODRIPSController(
        TechniqueSet.baseline(), config=config, cache=cache
    ).measure(cycles=cycles, macro=macro)
    rows: List[Fig6aRow] = []
    for label, techniques in FIG6A_SETS:
        measurement = ODRIPSController(techniques, config=config, cache=cache).measure(
            cycles=cycles, macro=macro
        )
        paper_saving, paper_be = FIG6A_PAPER[label]
        break_even_ms: Optional[float] = None
        if with_break_even:
            break_even_ms = find_break_even(techniques, config=config).break_even_ms
        rows.append(
            Fig6aRow(
                label=label,
                average_power_mw=measurement.average_power_w * 1e3,
                saving=measurement.saving_vs(baseline),
                paper_saving=paper_saving,
                break_even_ms=break_even_ms,
                paper_break_even_ms=paper_be * 1e3,
            )
        )
    return Fig6aResult(baseline_mw=baseline.average_power_w * 1e3, rows=rows)


# ---------------------------------------------------------------------------
# Fig. 6(b) / Fig. 6(c)
# ---------------------------------------------------------------------------


@dataclass
class SweepRow:
    parameter: float
    average_power_mw: float
    delta_vs_reference: float
    paper_delta: Optional[float]


#: Paper's Fig. 6(b): deltas vs the 0.8 GHz ODRIPS reference.
FIG6B_PAPER = {0.8: 0.0, 1.0: -0.014, 1.5: +0.01}

#: Paper's Fig. 6(c): deltas vs the 1.6 GHz DRAM reference.
FIG6C_PAPER = {1.6e9: 0.0, 1.067e9: -0.003, 0.8e9: -0.007}


def _odrips_average_at_core_freq(
    freq_ghz: float, config: Optional[PlatformConfig], cycles: int, macro: bool = False
) -> float:
    """Module-level (picklable) sweep point for Fig. 6(b)."""
    measurement = ODRIPSController(TechniqueSet.odrips(), config=config).measure(
        cycles=cycles, core_freq_ghz=freq_ghz, macro=macro
    )
    return measurement.average_power_w


def _odrips_average_at_dram_rate(
    rate_hz: float, config: Optional[PlatformConfig], cycles: int, macro: bool = False
) -> float:
    """Module-level (picklable) sweep point for Fig. 6(c)."""
    measurement = ODRIPSController(TechniqueSet.odrips(), config=config).measure(
        cycles=cycles, dram_rate_hz=rate_hz, macro=macro
    )
    return measurement.average_power_w


def _sweep_rows(
    points: List[Tuple[float, float]], paper: Dict[float, float]
) -> List[SweepRow]:
    """Digest ``(parameter, watts)`` sweep points into Fig. 6(b)/(c) rows."""
    reference = points[0][1]
    return [
        SweepRow(
            parameter=parameter,
            average_power_mw=watts * 1e3,
            delta_vs_reference=watts / reference - 1.0,
            paper_delta=paper.get(parameter),
        )
        for parameter, watts in points
    ]


def _fig6b_metrics(rows: List["SweepRow"]) -> Dict[str, float]:
    values: Dict[str, float] = {}
    for row in rows:
        values[f"power_mw:{row.parameter:.1f}GHz"] = row.average_power_mw
        values[f"delta:{row.parameter:.1f}GHz"] = row.delta_vs_reference
    return values


@experiment_driver(
    "fig6b",
    metric_keys=(
        "power_mw:0.8GHz", "delta:0.8GHz", "power_mw:1.0GHz", "delta:1.0GHz",
        "power_mw:1.5GHz", "delta:1.5GHz",
    ),
    metrics=_fig6b_metrics,
    goldens=(
        GoldenValue("delta:1.0GHz", -0.014, 0.015),
        GoldenValue("delta:1.5GHz", 0.01, 0.015),
    ),
)
def fig6b_core_frequency(
    config: Optional[PlatformConfig] = None,
    frequencies_ghz: Tuple[float, ...] = (0.8, 1.0, 1.5),
    cycles: int = 2,
    macro: bool = False,
) -> List[SweepRow]:
    """Reproduce the core-frequency sweep of Fig. 6(b) (ODRIPS platform).

    Every point is an independent simulation, which :func:`sweep` runs
    in worker processes where the host has the cores.  ``macro``
    macro-steps each point's run.
    """
    points = sweep(
        frequencies_ghz,
        partial(_odrips_average_at_core_freq, config=config, cycles=cycles, macro=macro),
    )
    return _sweep_rows(points, FIG6B_PAPER)


def _fig6c_metrics(rows: List["SweepRow"]) -> Dict[str, float]:
    values: Dict[str, float] = {}
    for row in rows:
        values[f"power_mw:{row.parameter / 1e9:.3f}GHz"] = row.average_power_mw
        values[f"delta:{row.parameter / 1e9:.3f}GHz"] = row.delta_vs_reference
    return values


@experiment_driver(
    "fig6c",
    metric_keys=(
        "power_mw:1.600GHz", "delta:1.600GHz", "power_mw:1.067GHz",
        "delta:1.067GHz", "power_mw:0.800GHz", "delta:0.800GHz",
    ),
    metrics=_fig6c_metrics,
    goldens=(
        GoldenValue("delta:1.067GHz", -0.003, 0.008),
        GoldenValue("delta:0.800GHz", -0.007, 0.008),
    ),
)
def fig6c_dram_frequency(
    config: Optional[PlatformConfig] = None,
    rates_hz: Tuple[float, ...] = (1.6e9, 1.067e9, 0.8e9),
    cycles: int = 2,
    macro: bool = False,
) -> List[SweepRow]:
    """Reproduce the DRAM-frequency sweep of Fig. 6(c) (ODRIPS platform).

    The points run like :func:`fig6b_core_frequency`'s.  ``macro``
    macro-steps each point.
    """
    points = sweep(
        rates_hz,
        partial(_odrips_average_at_dram_rate, config=config, cycles=cycles, macro=macro),
    )
    return _sweep_rows(points, FIG6C_PAPER)


# ---------------------------------------------------------------------------
# Fig. 6(d)
# ---------------------------------------------------------------------------

FIG6D_PAPER_SAVINGS = {"ODRIPS": 0.22, "ODRIPS-MRAM": 0.225, "ODRIPS-PCM": 0.37}


@dataclass
class Fig6dRow:
    label: str
    average_power_mw: float
    saving_vs_baseline: float
    paper_saving: float
    break_even_ms: Optional[float]


def _fig6d_metrics(rows: List["Fig6dRow"]) -> Dict[str, float]:
    values: Dict[str, float] = {}
    for row in rows:
        values[f"power_mw:{row.label}"] = row.average_power_mw
        values[f"saving:{row.label}"] = row.saving_vs_baseline
    return values


@experiment_driver(
    "fig6d",
    metric_keys=(
        "power_mw:ODRIPS", "saving:ODRIPS", "power_mw:ODRIPS-MRAM",
        "saving:ODRIPS-MRAM", "power_mw:ODRIPS-PCM", "saving:ODRIPS-PCM",
    ),
    metrics=_fig6d_metrics,
    goldens=(
        GoldenValue("saving:ODRIPS", 0.22, 0.025),
        GoldenValue("saving:ODRIPS-MRAM", 0.225, 0.03),
        GoldenValue("saving:ODRIPS-PCM", 0.37, 0.03),
    ),
)
def fig6d_emerging_memories(
    config: Optional[PlatformConfig] = None,
    cycles: int = 2,
    with_break_even: bool = False,
    cache: Optional["SimulationCache"] = None,
    macro: bool = False,
) -> List[Fig6dRow]:
    """Reproduce Fig. 6(d): context stored in eMRAM / PCM main memory.

    ``cache`` memoizes each run; the baseline and ODRIPS runs are shared
    with fig2/fig6a/validation when they use the same cache.
    """
    baseline = ODRIPSController(
        TechniqueSet.baseline(), config=config, cache=cache
    ).measure(cycles=cycles, macro=macro)
    rows: List[Fig6dRow] = []
    for label, techniques in [
        ("ODRIPS", TechniqueSet.odrips()),
        ("ODRIPS-MRAM", TechniqueSet.odrips_mram()),
        ("ODRIPS-PCM", TechniqueSet.odrips_pcm()),
    ]:
        measurement = ODRIPSController(techniques, config=config, cache=cache).measure(
            cycles=cycles, macro=macro
        )
        break_even_ms: Optional[float] = None
        if with_break_even:
            break_even_ms = find_break_even(techniques, config=config).break_even_ms
        rows.append(
            Fig6dRow(
                label=label,
                average_power_mw=measurement.average_power_w * 1e3,
                saving_vs_baseline=measurement.saving_vs(baseline),
                paper_saving=FIG6D_PAPER_SAVINGS[label],
                break_even_ms=break_even_ms,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Sec. 6.3: context transfer latency
# ---------------------------------------------------------------------------


@dataclass
class ContextLatencyResult:
    save_us: float
    restore_us: float
    context_bytes: int
    paper_save_us: float = 18.0
    paper_restore_us: float = 13.0
    sgx_region_fraction: float = 0.0


def _latency_metrics(result: "ContextLatencyResult") -> Dict[str, float]:
    return {
        "save_us": result.save_us,
        "restore_us": result.restore_us,
        "context_bytes": float(result.context_bytes),
    }


@experiment_driver(
    "latency",
    metric_keys=("save_us", "restore_us", "context_bytes"),
    metrics=_latency_metrics,
    goldens=(
        GoldenValue("save_us", 18.0, 0.3, kind="relative"),
        GoldenValue("restore_us", 13.0, 0.4, kind="relative"),
    ),
)
def sec63_context_latency(config: Optional[PlatformConfig] = None) -> ContextLatencyResult:
    """Measure the 200 KB context save/restore latency through the MEE."""
    controller = ODRIPSController(TechniqueSet.ctx_sgx_dram_only(), config=config)
    platform = controller.build_platform()
    from repro.workloads.standby import ConnectedStandbyRunner

    runner = ConnectedStandbyRunner(platform, idle_interval_s=1.0, maintenance_s=0.02)
    runner.run(cycles=1)
    stats = runner.flows.stats
    cfg = platform.config
    return ContextLatencyResult(
        save_us=stats.ctx_save_latencies_ps[-1] / 1e6,
        restore_us=stats.ctx_restore_latencies_ps[-1] / 1e6,
        context_bytes=cfg.context.total_bytes,
        sgx_region_fraction=cfg.context.total_bytes / cfg.sgx_region_bytes,
    )


# ---------------------------------------------------------------------------
# Sec. 4.1.3: Step calibration sizing
# ---------------------------------------------------------------------------


@dataclass
class CalibrationSizingResult:
    integer_bits: int
    fractional_bits: int
    worst_case_drift_ppb: float
    paper_integer_bits: int = 10
    paper_fractional_bits: int = 21


def _calibration_metrics(result: "CalibrationSizingResult") -> Dict[str, float]:
    return {
        "integer_bits": float(result.integer_bits),
        "fractional_bits": float(result.fractional_bits),
        "worst_case_drift_ppb": result.worst_case_drift_ppb,
    }


@experiment_driver(
    "calibration",
    metric_keys=("integer_bits", "fractional_bits", "worst_case_drift_ppb"),
    metrics=_calibration_metrics,
    goldens=(
        GoldenValue("integer_bits", 10.0, 0.0),
        GoldenValue("fractional_bits", 21.0, 0.0),
        GoldenValue("worst_case_drift_ppb", 1.0, 0.0, kind="ceiling"),
    ),
)
def sec413_calibration(config: Optional[PlatformConfig] = None) -> CalibrationSizingResult:
    """Equations 2-4: the Step register needs m=10, f=21 for 1 ppb."""
    cfg = config if config is not None else skylake_config()
    m = integer_bits_for_ratio(cfg.fast_xtal_hz, cfg.slow_xtal_hz)
    f = fractional_bits_for_precision(
        cfg.fast_xtal_hz, cfg.slow_xtal_hz, cfg.timer_precision_ppb
    )
    return CalibrationSizingResult(
        integer_bits=m,
        fractional_bits=f,
        worst_case_drift_ppb=worst_case_drift_ppb(cfg.fast_xtal_hz, cfg.slow_xtal_hz, f),
    )


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------


def _table1_metrics(result: Dict[str, Tuple[str, str]]) -> Dict[str, float]:
    return {}


@experiment_driver(
    "table1",
    metric_keys=(),
    metrics=_table1_metrics,
    golden_exempt="static configuration table (no measured quantities)",
)
def table1_parameters() -> Dict[str, Tuple[str, str]]:
    """The system parameters of Table 1 (from the configurations)."""
    return table1_rows()
