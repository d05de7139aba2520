"""The platform power tree: rails aggregated into battery-side power.

The :class:`PowerTree` is the root of the power model.  Every change in a
leaf component propagates here; the tree recomputes battery-side power,
records it on the trace — once per :meth:`PowerTree.batch` when changes
are batched.  The trace is the platform's one energy record: every
energy figure integrates its ``platform`` and ``rail:<name>`` channels.
The tree also produces the attributed per-component breakdown that
reproduces Fig. 1(b): each component is charged its share of the
power-delivery loss of its rail (the "power-delivery tax" of Sec. 8).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.power.domain import Rail
from repro.power.regulator import EfficiencyCurve, Regulator
from repro.sim.kernel import Kernel
from repro.sim.trace import TraceRecorder


class PowerTree:
    """Aggregates rails, records platform power, exposes breakdowns."""

    PLATFORM_CHANNEL = "platform"

    def __init__(
        self,
        kernel: Kernel,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.kernel = kernel
        self.trace = trace
        self._rails: List[Rail] = []
        self._suspended = 0
        #: A change arrived while suspended: the last resume must record.
        self._dirty = False
        # platform_power() memo; every change below reaches _on_change,
        # suspended or not, which drops it first.
        self._platform_watts: Optional[float] = None

    # --- construction ---------------------------------------------------------

    def add_rail(self, rail: Rail) -> Rail:
        self._rails.append(rail)
        rail.set_listener(self._on_change)
        self._on_change()
        return rail

    def new_rail(
        self,
        name: str,
        voltage: float,
        curve: Optional[EfficiencyCurve] = None,
        quiescent_watts: float = 0.0,
        enabled: bool = True,
    ) -> Rail:
        """Create a rail with its own regulator and register it."""
        regulator = Regulator(
            f"vr:{name}",
            curve if curve is not None else EfficiencyCurve.constant(1.0),
            quiescent_watts,
            enabled,
        )
        return self.add_rail(Rail(name, voltage, regulator))

    @property
    def rails(self) -> List[Rail]:
        return list(self._rails)

    def rail(self, name: str) -> Rail:
        for rail in self._rails:
            if rail.name == name:
                return rail
        raise KeyError(f"no rail named {name!r}")

    # --- introspection (used by repro.lint's model verifier) -------------------

    def iter_domains(self):
        """Every power domain registered through a rail of this tree."""
        for rail in self._rails:
            yield from rail.domains

    def iter_components(self):
        """Every component reachable through this tree's rails."""
        for domain in self.iter_domains():
            yield from domain.components

    # --- change propagation -----------------------------------------------------

    def suspend_updates(self) -> None:
        """Batch many component changes into one re-evaluation.

        Nested suspensions are counted; the tree re-evaluates when the last
        one resumes, and only if a change arrived meanwhile.  Use around
        multi-component state transitions that happen at a single
        simulation instant.
        """
        self._suspended += 1

    def resume_updates(self) -> None:
        if self._suspended <= 0:
            return
        self._suspended -= 1
        if self._suspended == 0 and self._dirty:
            self._on_change()

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Suspend updates for the ``with`` body, resuming even on error.

        Every change inside the body lands at the current instant, so one
        evaluation at the end records the only value that holds for
        non-zero time: trace consumers drop zero-length intervals.
        """
        self.suspend_updates()
        try:
            yield
        finally:
            self.resume_updates()

    def _on_change(self) -> None:
        self._platform_watts = None
        if self._suspended:
            self._dirty = True
            return
        self._dirty = False
        now = self.kernel.now
        rail_watts = [rail.input_power() for rail in self._rails]
        total = self._platform_watts = sum(rail_watts)
        # The platform channel carries the battery-side total; the per-rail
        # channels are views of it (summing both would double-count energy)
        # that let the simulated power analyzer measure individual rails
        # like the paper's four-channel N6705B setup (Sec. 7).
        if self.trace is not None:
            self.trace.record(now, self.PLATFORM_CHANNEL, total)
            for rail, watts in zip(self._rails, rail_watts):
                self.trace.record(now, f"rail:{rail.name}", watts)

    def refresh(self) -> None:
        """Force re-evaluation (e.g. after attaching pre-built rails)."""
        self._on_change()

    # --- views -----------------------------------------------------------------

    def platform_power(self) -> float:
        """Instantaneous battery-side platform power in watts."""
        if self._platform_watts is None:
            self._platform_watts = sum(rail.input_power() for rail in self._rails)
        return self._platform_watts

    def budget_description(self) -> Dict[str, object]:
        """Declared trace channels of the power tree, for the budget probe.

        The priced-timed analysis (:mod:`repro.check.budgets`) integrates
        per-state and per-flow-step energies out of the recorded power
        trace; this declaration pins which channel carries the
        battery-side total and how per-rail channels are named, so the
        probe reads the tree's contract instead of hard-coding it.
        """
        return {
            "platform_channel": self.PLATFORM_CHANNEL,
            "rail_channel_prefix": "rail:",
            "rail_channels": tuple(f"rail:{rail.name}" for rail in self._rails),
        }

    def attributed_breakdown(self) -> Dict[str, float]:
        """Battery-side watts per component, distributing the PD tax.

        Each rail's regulator loss (including quiescent draw) is spread over
        the rail's components proportionally to their nominal demand; a rail
        with zero load books its quiescent draw under ``vr:<rail>``.
        Domain-gate leakage while a domain is off is booked under
        ``gate:<domain>``.
        """
        breakdown: Dict[str, float] = {}
        for rail in self._rails:
            load = rail.load_watts()
            input_power = rail.input_power()
            if load <= 0:
                if input_power > 0:
                    breakdown[f"vr:{rail.name}"] = breakdown.get(f"vr:{rail.name}", 0.0) + input_power
                continue
            tax_factor = input_power / load
            for domain in rail.domains:
                domain_load = domain.load_watts()
                if domain_load <= 0:
                    continue
                if not domain.delivering:
                    key = f"gate:{domain.name}"
                    breakdown[key] = breakdown.get(key, 0.0) + domain_load * tax_factor
                    continue
                nominal = domain.nominal_load_watts()
                gate_overhead = domain_load - nominal
                for component in domain.components:
                    share = component.power_watts
                    if nominal > 0:
                        share += gate_overhead * (component.power_watts / nominal)
                    breakdown[component.name] = (
                        breakdown.get(component.name, 0.0) + share * tax_factor
                    )
        return breakdown

    def breakdown_fractions(self) -> Dict[str, float]:
        """Attributed breakdown normalized to fractions of platform power."""
        breakdown = self.attributed_breakdown()
        total = sum(breakdown.values())
        if total <= 0:
            return {name: 0.0 for name in breakdown}
        return {name: watts / total for name, watts in breakdown.items()}
