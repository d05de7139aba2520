"""Platform configuration and calibration constants.

Every absolute power/latency constant of the model lives here, with the
paper-sourced value it was calibrated against.  The shape of the results
(who wins, by what factor, where break-evens fall) comes from the model
structure; these constants pin the absolute scale to the paper's
measurements:

* platform DRIPS power ~60 mW at 30 C with 8 GB DDR3L-1600 (Fig. 1(b));
* processor share of DRIPS power 18 %, with wake-up hardware ~5 %
  (1 % on-die timer/monitor + 4 % crystal), AON IOs 7 %, S/R SRAMs 9 %
  (Fig. 1(b) and the Sec. 8 decomposition);
* power-delivery efficiency 74 % in DRIPS (Sec. 8 footnote 5);
* C0 display-off power ~3 W; idle interval ~30 s; maintenance bursts
  100-300 ms; entry ~200 us; exit ~300 us (Sec. 7);
* context save ~18 us / restore ~13 us for ~200 KB over DDR3-1600
  (Sec. 6.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.errors import ConfigError
from repro.units import GIB, KIB, MHZ, MILLIWATT


# ---------------------------------------------------------------------------
# process technology
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProcessNode:
    """A fabrication process node with first-order scaling attributes.

    ``capacitance_scale``, ``voltage_scale`` and ``leakage_scale`` are
    relative to the 22 nm baseline and feed the Haswell-to-Skylake power
    scaling of Sec. 7 (methodology of Stillmaker & Baas [79]).
    """

    name: str
    feature_nm: int
    capacitance_scale: float
    voltage_scale: float
    leakage_scale: float


PROCESS_22NM = ProcessNode("22nm", 22, 1.0, 1.0, 1.0)
PROCESS_14NM = ProcessNode("14nm", 14, 0.72, 0.93, 0.82)


# ---------------------------------------------------------------------------
# DRIPS power budget
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DRIPSPowerBudget:
    """Battery-side component slices of platform DRIPS power, in watts.

    The slices reproduce Fig. 1(b): with ``total ~= 60 mW``, the
    processor-side slices sum to ~18 %, the wake-up hardware (on-die
    monitor + 24 MHz crystal) to ~5 %, AON IOs to 7 %, and S/R SRAMs to
    9 %.  Nominal (silicon-side) powers are derived by multiplying by the
    DRIPS power-delivery efficiency where the component sits behind a
    regulator.
    """

    # --- processor slices (18 % of 60 mW total) ---
    timer_wakeup_monitor_w: float = 0.72e-3      # 1.2 %: timer toggle + wake monitor
    aon_io_bank_w: float = 4.20e-3               # 7.0 %: AON IO pads + clock buffers
    sr_sram_w: float = 5.40e-3                   # 9.0 %: SA + cores/GFX S/R SRAMs
    pmu_ungated_w: float = 0.42e-3               # 0.7 %: un-gated PMU slice
    pmu_deep_gated_w: float = 0.12e-3            # PMU residue with the ODRIPS
    #   deep gate closed (chipset owns wake events, Fig. 3(a)).
    cke_drive_w: float = 0.18e-3                 # 0.3 %: CKE self-refresh drive

    # --- board clock sources ---
    fast_xtal_w: float = 2.40e-3                 # 4.0 %: 24 MHz crystal oscillator
    slow_xtal_w: float = 0.06e-3                 # 0.1 %: 32.768 kHz RTC crystal

    # --- chipset ---
    chipset_aon_w: float = 14.60e-3              # 24.3 %: chipset AON domains
    chipset_proc_link_w: float = 1.00e-3         # 1.7 %: chipset side of the
    #   processor-facing links (PML endpoint, clock drivers); idles once the
    #   processor IO bank is gated in ODRIPS.
    chipset_wake_monitor_w: float = 1.38e-3      # 2.3 %: 24 MHz wake monitoring
    chipset_wake_monitor_slow_w: float = 0.07e-3  # same monitor toggled at
    #   32.768 kHz in ODRIPS (~730x less switched capacitance per second).
    chipset_dual_timer_w: float = 0.0006e-3      # <0.001 % of chipset (Sec. 4.2)

    # --- memory & rest of board ---
    dram_self_refresh_w: float = 10.92e-3        # 18.2 %: 8 GiB DDR3L self-refresh
    board_other_w: float = 17.62e-3              # 29.4 %: SSD standby, sensors,
    #   battery electronics and the remaining board draws; sized so the
    #   platform total lands on the measured ~60 mW.

    # --- delivery ---
    sram_retention_vr_quiescent_w: float = 0.60e-3  # dedicated retention-rail VR
    aon_vr_quiescent_w: float = 0.50e-3          # processor AON-rail VR quiescent;
    #   turns off only when all three techniques strip the rail down to the
    #   Boot SRAM (the "power delivery" slice of the 22 % in Sec. 8).

    def processor_total_w(self) -> float:
        """Processor-side DRIPS draw (should be ~18 % of the platform)."""
        return (
            self.timer_wakeup_monitor_w
            + self.aon_io_bank_w
            + self.sr_sram_w
            + self.pmu_ungated_w
            + self.cke_drive_w
        )

    def platform_total_w(self) -> float:
        """Battery-side platform DRIPS power (~60 mW)."""
        return (
            self.processor_total_w()
            + self.fast_xtal_w
            + self.slow_xtal_w
            + self.chipset_aon_w
            + self.chipset_proc_link_w
            + self.chipset_wake_monitor_w
            + self.chipset_dual_timer_w
            + self.dram_self_refresh_w
            + self.board_other_w
            + self.sram_retention_vr_quiescent_w
            + self.aon_vr_quiescent_w
        )


# ---------------------------------------------------------------------------
# active-state power model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ActivePowerModel:
    """C0 (display-off) power model: ``P = uncore + C * V(f)^2 * f``.

    Calibrated so that P(0.8 GHz) ~= 3 W (Sec. 7) and the frequency sweep
    of Fig. 6(b) reproduces: a small saving at 1.0 GHz (voltage rides the
    Vmin floor, so energy-per-cycle is flat while static energy shrinks)
    and a small loss at 1.5 GHz (voltage must rise).
    """

    uncore_watts: float = 0.70                 # SA + fabric + misc while active
    dram_active_watts_at_1600: float = 0.30    # DRAM active slice (Fig. 6(c) lever)
    dynamic_cv2f_coeff: float = 5.10           # effective C in W / (V^2 * GHz)
    vmin_volts: float = 0.70                   # voltage floor
    vmin_ceiling_ghz: float = 1.00             # highest frequency at Vmin
    volts_per_ghz_above_vmin: float = 0.20     # V/f slope above the floor

    def voltage(self, freq_ghz: float) -> float:
        """Operating voltage at ``freq_ghz``."""
        if freq_ghz <= 0:
            raise ConfigError(f"frequency must be positive: {freq_ghz}")
        if freq_ghz <= self.vmin_ceiling_ghz:
            return self.vmin_volts
        return self.vmin_volts + (freq_ghz - self.vmin_ceiling_ghz) * self.volts_per_ghz_above_vmin

    def core_dynamic_watts(self, freq_ghz: float) -> float:
        """Compute-domain dynamic power at ``freq_ghz``."""
        volts = self.voltage(freq_ghz)
        return self.dynamic_cv2f_coeff * volts * volts * freq_ghz

    def dram_active_watts(self, dram_rate_hz: float) -> float:
        """DRAM active power, interface share scaling with frequency."""
        scale = 0.4 + 0.6 * (dram_rate_hz / 1.6e9)
        return self.dram_active_watts_at_1600 * scale

    def total_watts(self, freq_ghz: float, dram_rate_hz: float = 1.6e9) -> float:
        """Full-platform C0 power, display off."""
        return (
            self.uncore_watts
            + self.core_dynamic_watts(freq_ghz)
            + self.dram_active_watts(dram_rate_hz)
        )


# ---------------------------------------------------------------------------
# transition (entry/exit) model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransitionModel:
    """Latency and power of the DRIPS entry/exit flows.

    Baseline numbers come from Sec. 7 (entry ~200 us, exit ~300 us).  The
    per-technique extra steps are (duration, power) pairs whose energies
    were calibrated so the simulated break-even residencies land on the
    measured values of Fig. 6(a): 6.6 / 6.3 / 7.4 / 6.5 ms for
    WAKE-UP-OFF / AON-IO-GATE / CTX-SGX-DRAM / ODRIPS.  Durations that the
    mechanics determine (32 kHz edge waits, MEE bulk-transfer latency) are
    taken from the simulation; only the step power levels are calibration
    constants.
    """

    # Baseline DRIPS flow
    entry_latency_ps: int = 200_000_000        # 200 us
    exit_latency_ps: int = 300_000_000         # 300 us
    entry_power_watts: float = 0.90            # avg power during entry flow
    exit_power_watts: float = 1.20             # avg power during exit flow (VR ramp)

    # Technique 1 (WAKE-UP-OFF): timer migration.  Entry waits for a
    # 32 kHz rising edge (0..30.5 us, mean ~15.3 us) with the platform
    # almost fully quiesced (near-DRIPS power, so the phase-dependent
    # wait length barely moves the energy); exit re-enables the fast
    # crystal (fast restart: the oscillator stays biased) and restores
    # the timer over the PML during the VR ramp.
    timer_migration_entry_power_w: float = 0.15
    xtal_fast_restart_ps: int = 20_000_000     # 20 us biased-crystal restart
    timer_restore_exit_ps: int = 22_000_000    # 22 us PML copy back + reload
    timer_restore_exit_power_w: float = 1.20

    # Technique 2 (AON-IO-GATE): IO handoff to the chipset + FET switch.
    io_handoff_entry_ps: int = 12_000_000      # 12 us quiesce + handoff + FET open
    io_handoff_entry_power_w: float = 0.90
    io_restore_exit_ps: int = 21_000_000       # 21 us FET close + IO re-init
    io_restore_exit_power_w: float = 1.20

    # Technique 3 (CTX-SGX-DRAM): context flush/restore through the MEE.
    # Durations come from the MEE bulk-transfer model (~18 us / ~13 us at
    # DDR3-1600 for ~200 KB, Sec. 6.3) and stretch when DRAM slows down.
    ctx_save_power_w: float = 1.40
    ctx_restore_power_w: float = 1.10
    boot_fsm_restore_ps: int = 2_000_000       # 2 us Boot FSM (PMU+MC+MEE)


# ---------------------------------------------------------------------------
# context inventory
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContextInventory:
    """Sizes of the processor context saved in DRIPS (Sec. 6: "at most
    200 KB", of which ~1 KB / 0.5 % must stay on-chip in the Boot SRAM)."""

    system_agent_bytes: int = 64 * KIB
    cores_bytes: int = 96 * KIB
    graphics_bytes: int = 40 * KIB
    boot_bytes: int = 1 * KIB

    def __post_init__(self) -> None:
        # the three offloaded images must exist; the boot blob may be empty
        least = {"system_agent_bytes": 1, "cores_bytes": 1, "graphics_bytes": 1, "boot_bytes": 0}
        for name, minimum in least.items():
            size = getattr(self, name)
            if not isinstance(size, int) or isinstance(size, bool) or size < minimum:
                raise ConfigError(f"context {name} must be an int >= {minimum}: {size!r}")

    @property
    def total_bytes(self) -> int:
        return self.system_agent_bytes + self.cores_bytes + self.graphics_bytes

    @property
    def offloadable_bytes(self) -> int:
        """Context that can leave the chip (everything but the boot blob)."""
        return self.total_bytes


# ---------------------------------------------------------------------------
# full platform configurations (Table 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlatformConfig:
    """One row of Table 1 plus every derived calibration block."""

    name: str
    processor: str
    chipset: str
    process: ProcessNode
    tdp_watts: float = 15.0
    min_core_ghz: float = 0.8
    max_core_ghz: float = 2.4
    llc_bytes: int = 3 * 1024 * KIB
    dram_capacity_bytes: int = 8 * GIB
    dram_rate_hz: float = 1.6e9
    dram_channels: int = 2
    fast_xtal_hz: float = 24.0 * MHZ
    slow_xtal_hz: float = 32768.0
    fast_xtal_ppm: float = 10.0
    slow_xtal_ppm: float = -5.0
    drips_efficiency: float = 0.74             # power delivery in DRIPS (Sec. 8)
    active_efficiency: float = 0.87            # power delivery near the design point
    budget: DRIPSPowerBudget = field(default_factory=DRIPSPowerBudget)
    active_model: ActivePowerModel = field(default_factory=ActivePowerModel)
    transitions: TransitionModel = field(default_factory=TransitionModel)
    context: ContextInventory = field(default_factory=ContextInventory)
    sgx_region_bytes: int = 64 * 1024 * KIB    # 64 MB protected capacity (Sec. 6.3)
    timer_precision_ppb: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.drips_efficiency <= 1:
            raise ConfigError(f"{self.name}: bad DRIPS efficiency")
        if not 0 < self.active_efficiency <= 1:
            raise ConfigError(f"{self.name}: bad active efficiency")
        if self.min_core_ghz <= 0 or self.max_core_ghz < self.min_core_ghz:
            raise ConfigError(f"{self.name}: bad core frequency range")


def skylake_config() -> PlatformConfig:
    """The target system of Table 1: i5-6300U + Sunrise Point-LP."""
    return PlatformConfig(
        name="skylake-mobile",
        processor="Intel i5-6300U (Skylake, 14nm)",
        chipset="Sunrise Point-LP",
        process=PROCESS_14NM,
    )


def haswell_config() -> PlatformConfig:
    """The measurement baseline of Table 1: i5-4300U + Lynx Point-LP.

    Component powers are the Skylake budget scaled *back* to 22 nm, since
    the paper measured Haswell and scaled forward; the round trip is what
    :mod:`repro.analysis.scaling` validates.
    """
    skylake = skylake_config()
    inverse = 1.0 / PROCESS_14NM.leakage_scale
    budget = DRIPSPowerBudget(
        timer_wakeup_monitor_w=skylake.budget.timer_wakeup_monitor_w * inverse,
        aon_io_bank_w=skylake.budget.aon_io_bank_w * inverse,
        sr_sram_w=skylake.budget.sr_sram_w * inverse,
        pmu_ungated_w=skylake.budget.pmu_ungated_w * inverse,
        cke_drive_w=skylake.budget.cke_drive_w,
        fast_xtal_w=skylake.budget.fast_xtal_w,
        slow_xtal_w=skylake.budget.slow_xtal_w,
        chipset_aon_w=skylake.budget.chipset_aon_w * inverse,
        chipset_proc_link_w=skylake.budget.chipset_proc_link_w * inverse,
        chipset_wake_monitor_w=skylake.budget.chipset_wake_monitor_w * inverse,
        chipset_dual_timer_w=skylake.budget.chipset_dual_timer_w,
        dram_self_refresh_w=skylake.budget.dram_self_refresh_w,
        board_other_w=skylake.budget.board_other_w,
        sram_retention_vr_quiescent_w=skylake.budget.sram_retention_vr_quiescent_w,
        aon_vr_quiescent_w=skylake.budget.aon_vr_quiescent_w,
    )
    return PlatformConfig(
        name="haswell-ult",
        processor="Intel i5-4300U (Haswell, 22nm)",
        chipset="Lynx Point-LP",
        process=PROCESS_22NM,
        budget=budget,
        transitions=TransitionModel(
            entry_latency_ps=250_000_000,
            exit_latency_ps=3_000_000_000,  # Haswell C10 exit ~3 ms (Sec. 3)
        ),
    )


# ---------------------------------------------------------------------------
# workload defaults (Sec. 7 "Workloads")
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StandbyWorkloadConfig:
    """Connected-standby phasing measured on the baseline platform:
    ~30 s idle, 100-300 ms of kernel maintenance, 99.5 % DRIPS residency."""

    idle_interval_s: float = 30.0
    maintenance_min_s: float = 0.100
    maintenance_max_s: float = 0.300
    maintenance_mean_s: float = 0.145
    external_wake_rate_per_hour: float = 4.0
    seed: int = 2020


def table1_rows() -> Dict[str, Tuple[str, str]]:
    """Table 1 as printable rows (used by the table bench)."""
    baseline = haswell_config()
    target = skylake_config()
    return {
        "Processor (baseline)": (baseline.processor, f"{baseline.process.feature_nm} nm"),
        "Processor (target)": (target.processor, f"{target.process.feature_nm} nm"),
        "Frequencies": (f"{target.min_core_ghz}-{target.max_core_ghz} GHz", ""),
        "L3 cache (LLC)": (f"{target.llc_bytes // (1024 * KIB)} MB", ""),
        "TDP": (f"{target.tdp_watts:.0f} W", ""),
        "Chipset (baseline)": (baseline.chipset, ""),
        "Chipset (target)": (target.chipset, ""),
        "Memory": (
            f"DDR3L-{target.dram_rate_hz / 1e6:.0f}, non-ECC, "
            f"{target.dram_channels}-channel, {target.dram_capacity_bytes // GIB} GB",
            "",
        ),
    }
