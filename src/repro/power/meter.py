"""Exact energy integration over piecewise-constant power.

The :class:`EnergyMeter` is the accounting backbone of every experiment:
components report power changes at event boundaries and the meter integrates
``power x time`` exactly between changes, per channel and in total.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.errors import MeasurementError
from repro.units import PICOSECONDS_PER_SECOND


class _Channel:
    __slots__ = ("power_watts", "last_update_ps", "energy_joules")

    def __init__(self, time_ps: int) -> None:
        self.power_watts = 0.0
        self.last_update_ps = time_ps
        self.energy_joules = 0.0

    def advance(self, time_ps: int) -> None:
        if time_ps < self.last_update_ps:
            raise MeasurementError(
                f"meter time went backwards: {time_ps} < {self.last_update_ps}"
            )
        elapsed = time_ps - self.last_update_ps
        if elapsed:
            self.energy_joules += self.power_watts * (elapsed / PICOSECONDS_PER_SECOND)
            self.last_update_ps = time_ps


class EnergyMeter:
    """Integrates per-channel and total energy from power-change reports.

    Channels are created lazily on first report.  ``set_power`` must be
    called with monotonically non-decreasing timestamps per channel.
    """

    def __init__(self, start_ps: int = 0) -> None:
        self._start_ps = start_ps
        self._channels: Dict[str, _Channel] = {}
        self._marks: Dict[str, Dict[str, float]] = {}

    def set_power(self, time_ps: int, channel: str, power_watts: float) -> None:
        """Report that ``channel`` draws ``power_watts`` from ``time_ps`` on."""
        if not 0.0 <= power_watts < math.inf:
            raise MeasurementError(
                f"power on {channel!r} must be finite and non-negative: {power_watts!r}"
            )
        entry = self._channels.get(channel)
        if entry is None:
            entry = _Channel(time_ps)
            self._channels[channel] = entry
        entry.advance(time_ps)
        entry.power_watts = power_watts

    def advance(self, time_ps: int) -> None:
        """Integrate all channels up to ``time_ps`` without changing levels."""
        for entry in self._channels.values():
            entry.advance(time_ps)

    def inject(self, time_ps: int, energy_joules: Dict[str, float]) -> None:
        """Jump every channel to ``time_ps``, crediting precomputed energy.

        The macro-stepping seam (:mod:`repro.sim.macro`): when compiled
        standby cycles are skipped with a kernel time warp, the per-channel
        energy of the skipped span is known analytically, so each listed
        channel is credited its joules directly and its integration anchor
        moved past the warp.  Channels without an entry in
        ``energy_joules`` are integrated normally (their power level is
        assumed to hold across the span).  Callers must integrate up to
        the pre-warp time first (:meth:`advance`) so the credit covers
        exactly the warped span.
        """
        for channel, joules in energy_joules.items():
            entry = self._channels.get(channel)
            if entry is None:
                entry = self._channels[channel] = _Channel(time_ps)
            if time_ps < entry.last_update_ps:
                raise MeasurementError(
                    f"meter time went backwards: {time_ps} < {entry.last_update_ps}"
                )
            entry.energy_joules += joules
            entry.last_update_ps = time_ps
        for channel, entry in self._channels.items():
            if channel not in energy_joules:
                entry.advance(time_ps)

    # --- queries ---------------------------------------------------------

    def power(self, channel: str) -> float:
        """Current power level of ``channel`` in watts (0 if unknown)."""
        entry = self._channels.get(channel)
        return entry.power_watts if entry else 0.0

    def total_power(self) -> float:
        """Sum of the current power levels of all channels."""
        return sum(entry.power_watts for entry in self._channels.values())

    def energy(self, channel: str, up_to_ps: Optional[int] = None) -> float:
        """Accumulated energy of ``channel`` in joules.

        When ``up_to_ps`` is given the channel is first integrated up to
        that time.
        """
        entry = self._channels.get(channel)
        if entry is None:
            return 0.0
        if up_to_ps is not None:
            entry.advance(up_to_ps)
        return entry.energy_joules

    def total_energy(self, up_to_ps: Optional[int] = None) -> float:
        """Accumulated energy across all channels in joules."""
        if up_to_ps is not None:
            self.advance(up_to_ps)
        return sum(entry.energy_joules for entry in self._channels.values())

    def channels(self) -> Dict[str, float]:
        """Mapping of channel name to its current power in watts."""
        return {name: entry.power_watts for name, entry in self._channels.items()}

    # --- interval measurement ---------------------------------------------

    def mark(self, name: str, time_ps: int) -> None:
        """Snapshot per-channel energies under ``name`` for later deltas."""
        self.advance(time_ps)
        self._marks[name] = {
            channel: entry.energy_joules for channel, entry in self._channels.items()
        }
        self._marks[name]["__time_ps__"] = float(time_ps)

    def energy_since(self, name: str, time_ps: int, channel: Optional[str] = None) -> float:
        """Energy accumulated since :meth:`mark` ``name``, in joules."""
        if name not in self._marks:
            raise MeasurementError(f"unknown mark {name!r}")
        snapshot = self._marks[name]
        self.advance(time_ps)
        if channel is not None:
            entry = self._channels.get(channel)
            current = entry.energy_joules if entry else 0.0
            return current - snapshot.get(channel, 0.0)
        total = 0.0
        for chan, entry in self._channels.items():
            total += entry.energy_joules - snapshot.get(chan, 0.0)
        return total

    def average_power_since(self, name: str, time_ps: int) -> float:
        """Average total power since mark ``name``, in watts."""
        if name not in self._marks:
            raise MeasurementError(f"unknown mark {name!r}")
        start_ps = int(self._marks[name]["__time_ps__"])
        window_ps = time_ps - start_ps
        if window_ps <= 0:
            raise MeasurementError("zero-length measurement window")
        energy = self.energy_since(name, time_ps)
        return energy / (window_ps / PICOSECONDS_PER_SECOND)
