"""Voltage regulators with load-dependent efficiency.

The paper reports a measured power-delivery efficiency of 74 % in DRIPS
(Sec. 8, footnote 5): every milliwatt of silicon load costs 1/0.74 mW at
the battery.  Efficiency improves at higher loads (switching regulators
are most efficient near their design point), which the
:class:`EfficiencyCurve` captures with piecewise-linear interpolation in
log-load space.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.errors import PowerError


class EfficiencyCurve:
    """Piecewise-linear efficiency vs. log10(load) interpolation.

    Points are ``(load_watts, efficiency)`` pairs; between points the
    efficiency is interpolated linearly in ``log10(load)``, clamping at the
    ends.  This is the standard shape of a buck regulator efficiency plot.
    """

    def __init__(self, points: Sequence[Tuple[float, float]]) -> None:
        if not points:
            raise PowerError("efficiency curve needs at least one point")
        cleaned: List[Tuple[float, float]] = []
        for load, eff in sorted(points):
            if not 0 < load < math.inf:
                raise PowerError(
                    f"efficiency point load must be positive and finite: {load}"
                )
            if not 0 < eff <= 1:
                raise PowerError(f"efficiency must be in (0, 1]: {eff}")
            cleaned.append((load, eff))
        self._points = cleaned
        #: The one efficiency of a flat curve, else None: interpolating
        #: between equal points returns ``eff_lo + t * 0.0 == eff_lo``.
        self._flat = cleaned[0][1] if len({eff for _, eff in cleaned}) == 1 else None
        #: Per segment: its loads, their log10 and its efficiencies.
        self._segments = [
            (load_lo, load_hi, math.log10(load_lo), math.log10(load_hi), eff_lo, eff_hi)
            for (load_lo, eff_lo), (load_hi, eff_hi) in zip(cleaned, cleaned[1:])
        ]

    def efficiency(self, load_watts: float) -> float:
        """Efficiency at ``load_watts`` (clamped outside the defined range)."""
        if self._flat is not None:
            return self._flat
        points = self._points
        if load_watts <= points[0][0]:
            return points[0][1]
        if load_watts >= points[-1][0]:
            return points[-1][1]
        x = math.log10(load_watts)
        for load_lo, load_hi, x_lo, x_hi, eff_lo, eff_hi in self._segments:
            if load_lo <= load_watts <= load_hi:
                if x_hi == x_lo:
                    return eff_hi
                t = (x - x_lo) / (x_hi - x_lo)
                return eff_lo + t * (eff_hi - eff_lo)
        return points[-1][1]  # pragma: no cover - unreachable by construction

    @classmethod
    def constant(cls, efficiency: float) -> "EfficiencyCurve":
        """A flat efficiency curve."""
        return cls([(1e-6, efficiency), (100.0, efficiency)])


class Regulator:
    """A voltage regulator converting battery power to a rail.

    A disabled regulator delivers nothing; asking it to supply a load while
    disabled is a modeling error (the platform flows must sequence
    regulators correctly, exactly as the PMU firmware does).

    ``quiescent_watts`` is the regulator's own idle draw while enabled; it
    is consumed even at zero load and disappears when the regulator is
    turned off — this is part of the "power delivery" savings ODRIPS gets
    by turning compute-domain regulators off in DRIPS.
    """

    def __init__(
        self,
        name: str,
        curve: EfficiencyCurve,
        quiescent_watts: float = 0.0,
        enabled: bool = True,
    ) -> None:
        if not 0 <= quiescent_watts < math.inf:
            raise PowerError(
                f"quiescent power on {name} must be finite and non-negative: "
                f"{quiescent_watts!r}"
            )
        self.name = name
        self.curve = curve
        self.quiescent_watts = quiescent_watts
        self._enabled = enabled
        self.enable_count = 0

    @property
    def enabled(self) -> bool:
        """True while the regulator can deliver power."""
        return self._enabled

    def enable(self) -> None:
        """Turn the regulator on."""
        if not self._enabled:
            self._enabled = True
            self.enable_count += 1

    def disable(self, load_watts: float = 0.0) -> None:
        """Turn the regulator off.  The load must already be quiesced."""
        if load_watts > 1e-12:
            raise PowerError(
                f"regulator {self.name} disabled with live load {load_watts} W"
            )
        self._enabled = False

    def input_power(self, load_watts: float) -> float:
        """Battery-side power needed to supply ``load_watts`` on the rail."""
        if load_watts < 0:
            raise PowerError(f"negative load on regulator {self.name}")
        if not self._enabled:
            if load_watts > 1e-12:
                raise PowerError(
                    f"regulator {self.name} is disabled but asked for {load_watts} W"
                )
            return 0.0
        if load_watts <= 0:
            # <=, not ==: exact float equality on an accumulated load is
            # fragile (negative loads were already rejected above).
            return self.quiescent_watts
        return load_watts / self.curve.efficiency(load_watts) + self.quiescent_watts
