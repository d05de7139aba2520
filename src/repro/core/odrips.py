"""The high-level ODRIPS API.

``ODRIPSController`` is the front door of the library: pick a technique
set, get a wired platform, run connected-standby measurements, and
compare against the baseline — the workflow behind every figure of the
evaluation.

Example::

    from repro.core import ODRIPSController, TechniqueSet

    baseline = ODRIPSController(TechniqueSet.baseline()).measure(cycles=2)
    odrips = ODRIPSController(TechniqueSet.odrips()).measure(cycles=2)
    saving = 1 - odrips.average_power_w / baseline.average_power_w
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.config import PlatformConfig, StandbyWorkloadConfig, skylake_config
from repro.core.techniques import TechniqueSet
from repro.errors import ConfigError
from repro.obs.profile import host_phase
from repro.effects import declares_effects
from repro.obs.hook import active
from repro.obs.runlog import host_wall_s
from repro.system.skylake import SkylakePlatform
from repro.workloads.standby import ConnectedStandbyRunner, StandbyResult

if TYPE_CHECKING:  # import cycle guard: repro.perf is optional plumbing
    from repro.perf.cache import SimulationCache


@dataclass
class StandbyMeasurement:
    """A digested connected-standby measurement."""

    label: str
    average_power_w: float
    drips_power_w: float
    drips_residency: float
    active_power_w: float
    entry_latency_us: float
    exit_latency_us: float
    drips_breakdown_w: Dict[str, float]
    #: Macro-engine statistics of the run (None for exact runs).
    macro: Optional[Dict[str, int]] = field(default=None)

    @classmethod
    def from_result(cls, label: str, result: StandbyResult) -> "StandbyMeasurement":
        entry = result.entry_latencies_ps
        exits = result.exit_latencies_ps
        return cls(
            label=label,
            average_power_w=result.average_power_w,
            drips_power_w=result.drips_power_w,
            drips_residency=result.drips_residency,
            active_power_w=result.active_power_w,
            entry_latency_us=(sum(entry) / len(entry) / 1e6) if entry else 0.0,
            exit_latency_us=(sum(exits) / len(exits) / 1e6) if exits else 0.0,
            drips_breakdown_w=result.drips_breakdown_w,
            macro=result.macro,
        )

    def macro_provenance(self) -> Dict[str, Any]:
        """Backend provenance for the flight recorder and ``repro explain``.

        The explainer refuses to diff a macro-stepped run against an
        exact one, so every record says which backend produced it.
        """
        stats = self.macro or {}
        return {
            "enabled": self.macro is not None,
            "cycles_compiled": int(stats.get("cycles_compiled", 0)),
            "steps": int(stats.get("macro_steps", 0)),
        }

    def saving_vs(self, baseline: "StandbyMeasurement") -> float:
        """Fractional average-power saving against ``baseline``."""
        return 1.0 - self.average_power_w / baseline.average_power_w


def _check_sweep_frequencies(
    core_freq_ghz: Optional[float], dram_rate_hz: Optional[float]
) -> None:
    for name, value in (("core_freq_ghz", core_freq_ghz), ("dram_rate_hz", dram_rate_hz)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{name} must be a positive finite number: {value!r}")


class ODRIPSController:
    """Builds a platform for a technique set and runs measurements.

    Each measurement builds a *fresh* platform (the paper's debug switch
    equivalent: flip the configuration, re-run the workload) so runs are
    independent and deterministic.
    """

    def __init__(
        self,
        techniques: Optional[TechniqueSet] = None,
        config: Optional[PlatformConfig] = None,
        workload: Optional[StandbyWorkloadConfig] = None,
        cache: Optional["SimulationCache"] = None,
    ) -> None:
        """``cache`` opts the controller into memoized measurements: a
        :class:`~repro.perf.cache.SimulationCache` keyed by the full
        configuration tree (platform, techniques, workload, measurement
        arguments).  Runs are deterministic, so a shared cache lets
        distinct experiment drivers reuse identical runs — cached
        measurements are shared objects and must not be mutated."""
        self.techniques = techniques if techniques is not None else TechniqueSet.baseline()
        self.config = config if config is not None else skylake_config()
        self.workload = workload if workload is not None else StandbyWorkloadConfig()
        self.cache = cache

    def build_platform(self, **platform_kwargs) -> SkylakePlatform:
        """A freshly wired platform for this technique set."""
        return SkylakePlatform(self.config, self.techniques, **platform_kwargs)

    @declares_effects("time")  # flight-recorder wall time, never in the result
    def measure(
        self,
        cycles: int = 2,
        idle_interval_s: Optional[float] = None,
        maintenance_s: Optional[float] = None,
        core_freq_ghz: Optional[float] = None,
        dram_rate_hz: Optional[float] = None,
        external_wakes: bool = False,
        period_s: Optional[float] = None,
        macro: bool = False,
    ) -> StandbyMeasurement:
        """Run a connected-standby measurement and digest the result.

        ``macro=True`` opts into cycle-compiled macro-stepping
        (:mod:`repro.sim.macro`): bit-for-bit identical results for
        periodic workloads, orders of magnitude faster for long horizons.
        The flag participates in the cache key, so exact and macro runs
        never share cache entries.

        With a :attr:`cache` configured, identical configurations return
        the memoized :class:`StandbyMeasurement` without re-simulating.
        A ``core_freq_ghz`` or ``dram_rate_hz`` that is not a positive
        finite number raises :class:`~repro.errors.ConfigError` before
        any platform is built or cache entry looked up.

        When a flight recorder is installed
        (``obs.observe(recorder=...)``) the measurement's host
        wall time and cache-hit status are contributed to the run record.
        """
        _check_sweep_frequencies(core_freq_ghz, dram_rate_hz)
        recorder = active().recorder
        start_s = host_wall_s() if recorder is not None else 0.0
        label = self.techniques.label()
        arguments = {
            "cycles": cycles,
            "idle_interval_s": idle_interval_s,
            "maintenance_s": maintenance_s,
            "core_freq_ghz": core_freq_ghz,
            "dram_rate_hz": dram_rate_hz,
            "external_wakes": external_wakes,
            "period_s": period_s,
            "macro": macro,
        }
        cached = False
        if self.cache is not None:
            key = self.cache.key(
                "ODRIPSController.measure",
                self.config,
                self.techniques,
                self.workload,
                arguments,
            )
            cached = key in self.cache
            result = self.cache.get_or_run(
                key, lambda: StandbyMeasurement.from_result(label, self.measure_raw(**arguments))
            )
        else:
            result = StandbyMeasurement.from_result(label, self.measure_raw(**arguments))
        if recorder is not None:
            recorder.measurement(
                result.label,
                host_wall_s() - start_s,
                cached,
                macro=result.macro_provenance(),
            )
        return result

    def measure_raw(
        self,
        cycles: int = 2,
        idle_interval_s: Optional[float] = None,
        maintenance_s: Optional[float] = None,
        core_freq_ghz: Optional[float] = None,
        dram_rate_hz: Optional[float] = None,
        external_wakes: bool = False,
        period_s: Optional[float] = None,
        macro: bool = False,
    ) -> StandbyResult:
        """Run a measurement and return the full :class:`StandbyResult`.

        Takes :meth:`measure`'s arguments, uncached; ``period_s`` pins
        wakes to a fixed grid (the break-even sweep schedule of Sec. 7).
        """
        _check_sweep_frequencies(core_freq_ghz, dram_rate_hz)
        with host_phase("build"):
            platform = self.build_platform()
            if core_freq_ghz is not None:
                platform.set_core_frequency(core_freq_ghz)
            if dram_rate_hz is not None:
                platform.set_dram_frequency(dram_rate_hz)
            runner = ConnectedStandbyRunner(
                platform,
                workload=self.workload,
                idle_interval_s=idle_interval_s,
                maintenance_s=maintenance_s,
                external_wakes=external_wakes,
                period_s=period_s,
                macro=macro,
            )
        with host_phase("simulate"):
            return runner.run(cycles=cycles)
