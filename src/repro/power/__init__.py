"""Power-delivery and energy-accounting models.

The power model is a tree::

    PowerTree (platform/battery view)
      └── Regulator (voltage regulator with an efficiency curve)
            └── Rail (a supply voltage)
                  └── PowerDomain (gateable group of loads)
                        └── Component (a leaf load, piecewise-constant watts)

Leaf components report power-level changes; the tree re-evaluates input
(battery-side) power and records it on the trace.  The trace is the one
energy record: measurements price its piecewise-constant power
channels without sampling error
(:class:`repro.measure.residency.CyclePrice`,
:func:`repro.measure.residency.integrate_joules`).

This mirrors the paper's methodology: Fig. 1(b) is a component breakdown of
platform DRIPS power *including* the power-delivery "tax" (Sec. 8, footnote:
74 % delivery efficiency in DRIPS — a 10 mW load costs 13.51 mW at the
battery).
"""

from repro.power.domain import Component, PowerDomain, Rail
from repro.power.gates import BoardFETGate, EmbeddedPowerGate, PowerGate
from repro.power.regulator import EfficiencyCurve, Regulator
from repro.power.tree import PowerTree

__all__ = [
    "BoardFETGate",
    "Component",
    "EfficiencyCurve",
    "EmbeddedPowerGate",
    "PowerDomain",
    "PowerGate",
    "PowerTree",
    "Rail",
    "Regulator",
]
