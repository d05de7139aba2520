"""On-die SRAM with process-dependent retention leakage.

Observation 3 (Sec. 3): the save/restore SRAMs hold the processor context
in DRIPS at *retention voltage* — "the lowest possible power supply
voltage at which the data can be retained" — and still burn 9 % of
platform DRIPS power, because the processor's performance-optimized
process leaks nearly **five times** more than equal-capacity SRAM in the
chipset's power-optimized process.

States:

* ``OPERATIONAL`` — full voltage; reads and writes allowed.
* ``RETENTION``   — minimum retention voltage; data held, no access.
* ``OFF``         — power removed; data lost.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.errors import MemoryFault
from repro.memory.store import SparseMemory
from repro.power.domain import Component


class SRAMState(enum.Enum):
    """Power state of an SRAM array."""

    OPERATIONAL = "operational"
    RETENTION = "retention"
    OFF = "off"


class SRAMDevice:
    """An SRAM array with leakage scaled by state and process.

    ``leakage_watts_per_byte`` is the *retention-voltage* leakage of the
    array's process.  Operational leakage is higher by
    ``operational_leakage_factor`` (full supply voltage).  Accesses cost
    no energy here: a context transfer is priced by the power its flow
    holds on the rail.
    """

    #: Retention leakage ratio, performance process vs low-power process
    #: ("nearly five times", Sec. 3 Observation 3).
    PROCESS_LEAKAGE_RATIO = 5.0

    def __init__(
        self,
        name: str,
        capacity_bytes: int,
        leakage_watts_per_byte: float,
        power_component: Optional[Component] = None,
        operational_leakage_factor: float = 2.5,
    ) -> None:
        if leakage_watts_per_byte < 0:
            raise MemoryFault(f"{name}: negative leakage")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.leakage_watts_per_byte = leakage_watts_per_byte
        self.operational_leakage_factor = operational_leakage_factor
        self.power_component = power_component
        self._store = SparseMemory(capacity_bytes)
        self._state = SRAMState.OPERATIONAL
        self._update_power()

    # --- power states -------------------------------------------------------

    @property
    def state(self) -> SRAMState:
        return self._state

    def enter_retention(self) -> None:
        """Drop to retention voltage (data held, access illegal)."""
        if self._state == SRAMState.OFF:
            raise MemoryFault(f"{self.name}: cannot retain a powered-off array")
        self._state = SRAMState.RETENTION
        self._update_power()

    def exit_retention(self) -> None:
        """Return to operational voltage."""
        if self._state == SRAMState.OFF:
            raise MemoryFault(f"{self.name}: power the array on first")
        self._state = SRAMState.OPERATIONAL
        self._update_power()

    def power_off(self) -> None:
        """Remove power entirely; contents are lost."""
        self._state = SRAMState.OFF
        self._store.erase()
        self._update_power()

    def power_on(self) -> None:
        """Restore power (contents undefined, modeled as zero-filled)."""
        self._state = SRAMState.OPERATIONAL
        self._update_power()

    def retention_power_watts(self) -> float:
        """Leakage at retention voltage for the full array."""
        return self.leakage_watts_per_byte * self.capacity_bytes

    def _update_power(self) -> None:
        if self.power_component is None:
            return
        if self._state == SRAMState.OFF:
            self.power_component.set_power(0.0)
        elif self._state == SRAMState.RETENTION:
            self.power_component.set_power(self.retention_power_watts())
        else:
            self.power_component.set_power(
                self.retention_power_watts() * self.operational_leakage_factor
            )

    # --- access ---------------------------------------------------------------

    def _check_accessible(self) -> None:
        if self._state != SRAMState.OPERATIONAL:
            raise MemoryFault(f"{self.name}: access in state {self._state.value}")

    def read(self, address: int, length: int) -> bytes:
        """Read bytes (operational state only)."""
        self._check_accessible()
        return self._store.read(address, length)

    def write(self, address: int, data: bytes) -> None:
        """Write bytes (operational state only)."""
        self._check_accessible()
        self._store.write(address, data)

    @classmethod
    def chipset_equivalent_leakage(cls, processor_leakage_watts_per_byte: float) -> float:
        """Per-byte leakage of an equal-capacity chipset-process SRAM."""
        return processor_leakage_watts_per_byte / cls.PROCESS_LEAKAGE_RATIO
