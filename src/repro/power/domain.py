"""Components, power domains and supply rails.

A :class:`Component` is a leaf load with a piecewise-constant power level.
Components live in a :class:`PowerDomain`, which may be gated by a
:class:`~repro.power.gates.PowerGate`.  Domains hang off a :class:`Rail`
fed by one :class:`~repro.power.regulator.Regulator`.

Any leaf change propagates up to the owning
:class:`~repro.power.tree.PowerTree`, which re-evaluates battery-side power
(once per batch of same-instant changes) and records it on the trace — so
power accounting is exact at every event boundary without polling.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

from repro.errors import PowerError
from repro.power.gates import PowerGate
from repro.power.regulator import Regulator

ChangeListener = Callable[[], None]


class Component:
    """A leaf power load.

    Components distinguish *leakage* (drawn whenever the domain is powered)
    from *dynamic* (activity-dependent) power, because the paper's
    techniques mostly attack leakage (S/R SRAM retention, AON IO leakage)
    while transitions add dynamic energy.
    """

    def __init__(self, name: str, leakage_watts: float = 0.0, dynamic_watts: float = 0.0) -> None:
        # chained comparisons reject negatives, NaN and +inf in one test
        if not (0.0 <= leakage_watts < math.inf and 0.0 <= dynamic_watts < math.inf):
            raise PowerError(f"component {name}: power must be finite and non-negative")
        self.name = name
        self._leakage_watts = leakage_watts
        self._dynamic_watts = dynamic_watts
        self._domain: Optional["PowerDomain"] = None

    # --- wiring ------------------------------------------------------------

    def attach(self, domain: "PowerDomain") -> None:
        if self._domain is not None:
            raise PowerError(f"component {self.name} already attached to {self._domain.name}")
        self._domain = domain

    @property
    def domain(self) -> Optional["PowerDomain"]:
        return self._domain

    # --- power -------------------------------------------------------------

    @property
    def leakage_watts(self) -> float:
        return self._leakage_watts

    @property
    def dynamic_watts(self) -> float:
        return self._dynamic_watts

    @property
    def power_watts(self) -> float:
        """Nominal demand of this component (leakage + dynamic)."""
        return self._leakage_watts + self._dynamic_watts

    def set_leakage(self, watts: float) -> None:
        """Set the leakage level (e.g. retention-voltage scaling)."""
        if not 0.0 <= watts < math.inf:
            raise PowerError(f"component {self.name}: leakage must be finite and non-negative")
        self._leakage_watts = watts
        self._notify()

    def set_dynamic(self, watts: float) -> None:
        """Set the activity-dependent power level."""
        if not 0.0 <= watts < math.inf:
            raise PowerError(
                f"component {self.name}: dynamic power must be finite and non-negative"
            )
        self._dynamic_watts = watts
        self._notify()

    def set_power(self, leakage_watts: float, dynamic_watts: float = 0.0) -> None:
        """Set both power terms in one notification."""
        if not (0.0 <= leakage_watts < math.inf and 0.0 <= dynamic_watts < math.inf):
            raise PowerError(f"component {self.name}: power must be finite and non-negative")
        self._leakage_watts = leakage_watts
        self._dynamic_watts = dynamic_watts
        self._notify()

    def _notify(self) -> None:
        if self._domain is not None:
            self._domain.notify_change()

    @property
    def powered(self) -> bool:
        """True when the owning domain actually delivers power."""
        return self._domain is not None and self._domain.delivering

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Component {self.name} {self.power_watts * 1e3:.3f} mW>"


class PowerDomain:
    """A gateable group of components sharing an on/off boundary.

    The effective load of the domain is::

        gate.delivered_power(sum(component powers))      if enabled
        gate.delivered_power(0)                          if disabled

    Disabling a domain models power-gating its contents (context is lost —
    enforcing that is the job of the device models, e.g. SRAMs raise
    :class:`~repro.errors.MemoryFault` when read after power loss).
    """

    def __init__(self, name: str, gate: Optional[PowerGate] = None) -> None:
        self.name = name
        self._gate = gate
        self._components: List[Component] = []
        self._enabled = True
        self._listener: Optional[ChangeListener] = None
        self.transition_count = 0
        # load_watts() memo; every mutation of the domain, its components
        # or its gate goes through notify_change, the only place that drops it.
        self._load_watts: Optional[float] = None

    def add(self, component: Component) -> Component:
        """Attach ``component`` and return it (builder convenience)."""
        component.attach(self)
        self._components.append(component)
        self.notify_change()
        return component

    def new_component(self, name: str, leakage_watts: float = 0.0, dynamic_watts: float = 0.0) -> Component:
        """Create and attach a component in one call."""
        return self.add(Component(name, leakage_watts, dynamic_watts))

    @property
    def components(self) -> List[Component]:
        return list(self._components)

    @property
    def gate(self) -> Optional[PowerGate]:
        return self._gate

    @gate.setter
    def gate(self, gate: Optional[PowerGate]) -> None:
        """Fit or swap the gate; the rail re-evaluates like any other change."""
        self._gate = gate
        self.notify_change()

    # --- on/off ------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def delivering(self) -> bool:
        """True when components actually receive power."""
        if not self._enabled:
            return False
        if self._gate is not None and not self._gate.closed:
            return False
        return True

    def power_off(self) -> None:
        """Power-gate the whole domain (contents lose state)."""
        if self._enabled:
            self._enabled = False
            self.transition_count += 1
            if self._gate is not None:
                self._gate.open()
            self.notify_change()

    def power_on(self) -> None:
        """Restore power to the domain."""
        if not self._enabled:
            self._enabled = True
            self.transition_count += 1
            if self._gate is not None:
                self._gate.close()
            self.notify_change()

    # --- accounting ----------------------------------------------------------

    def nominal_load_watts(self) -> float:
        """Sum of component demands, ignoring gating."""
        return sum(component.power_watts for component in self._components)

    def load_watts(self) -> float:
        """Load presented to the rail, accounting for the gate state."""
        if self._load_watts is None:
            if self._gate is not None:
                # On or off: an open gate leaks a fraction of what the load *would* draw.
                self._load_watts = self._gate.delivered_power(self.nominal_load_watts())
            else:
                self._load_watts = self.nominal_load_watts() if self._enabled else 0.0
        return self._load_watts

    def set_listener(self, listener: ChangeListener) -> None:
        self._listener = listener

    def notify_change(self) -> None:
        self._load_watts = None
        if self._listener is not None:
            self._listener()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "on" if self._enabled else "off"
        return f"<PowerDomain {self.name} {state} {self.load_watts() * 1e3:.3f} mW>"


class Rail:
    """A supply rail: one regulator feeding one or more domains."""

    def __init__(self, name: str, voltage: float, regulator: Regulator) -> None:
        if voltage <= 0:
            raise PowerError(f"rail {name}: voltage must be positive")
        self.name = name
        self.voltage = voltage
        self.regulator = regulator
        self._domains: List[PowerDomain] = []
        self._listener: Optional[ChangeListener] = None
        # input_power() memo; every mutation below the rail reaches
        # _on_change, which is the only place that drops it.
        self._input_power: Optional[float] = None

    def add_domain(self, domain: PowerDomain) -> PowerDomain:
        self._domains.append(domain)
        domain.set_listener(self._on_change)
        self._on_change()
        return domain

    def new_domain(self, name: str, gate: Optional[PowerGate] = None) -> PowerDomain:
        return self.add_domain(PowerDomain(name, gate))

    @property
    def domains(self) -> List[PowerDomain]:
        return list(self._domains)

    def load_watts(self) -> float:
        """Total load the rail presents to its regulator."""
        return sum(domain.load_watts() for domain in self._domains)

    def input_power(self) -> float:
        """Battery-side power of this rail through its regulator."""
        if self._input_power is None:
            self._input_power = self.regulator.input_power(self.load_watts())
        return self._input_power

    def turn_off(self) -> None:
        """Disable the regulator.  All domains must be off first."""
        live = [domain.name for domain in self._domains if domain.load_watts() > 1e-12]
        if live:
            raise PowerError(f"rail {self.name}: domains still loaded: {live}")
        self.regulator.disable()
        self._on_change()

    def turn_on(self) -> None:
        """Enable the regulator."""
        self.regulator.enable()
        self._on_change()

    def set_listener(self, listener: ChangeListener) -> None:
        self._listener = listener

    def _on_change(self) -> None:
        self._input_power = None
        if self._listener is not None:
            self._listener()

    def breakdown(self) -> Dict[str, float]:
        """Per-domain nominal loads in watts (diagnostic view)."""
        return {domain.name: domain.load_watts() for domain in self._domains}
