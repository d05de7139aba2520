"""The memory controller: routing, protection, and self-refresh control.

Implements the system-agent-resident controller of Fig. 4: a protected
range register (Context/SGX RR) redirects matching accesses through the
MEE; everything else goes straight to the device.  The controller also
owns the CKE signal that places DRAM into self-refresh during DRIPS entry
(step 4 of the entry flow, Sec. 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import MemoryFault
from repro.memory.region import MemoryRegion, RangeRegister
from repro.sim.signals import Signal


@dataclass
class AccessStats:
    """Cumulative controller traffic statistics."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    protected_reads: int = 0
    protected_writes: int = 0

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.protected_reads = 0
        self.protected_writes = 0


class MemoryController:
    """Routes CPU-side accesses to the memory device, via the MEE when
    the protected range register matches."""

    def __init__(self, name: str, device, mee=None) -> None:
        self.name = name
        self.device = device
        self.mee = mee
        self.range_register = RangeRegister(f"{name}.context_rr")
        self.cke = Signal(f"{name}.cke", initial=True)  # high = clocked
        self.stats = AccessStats()
        self._powered = True

    # --- power ---------------------------------------------------------------

    @property
    def powered(self) -> bool:
        return self._powered

    def power_off(self) -> None:
        """The controller loses state in DRIPS; Boot FSM restores it."""
        self._powered = False

    def power_on(self) -> None:
        self._powered = True

    def _check_powered(self) -> None:
        if not self._powered:
            raise MemoryFault(f"{self.name}: controller is powered off")

    # --- protection setup ------------------------------------------------------

    def attach_mee(self, mee, region: MemoryRegion) -> None:
        """Install the MEE over ``region`` and lock the range register."""
        self.mee = mee
        self.range_register.program(region)
        self.range_register.lock()

    # --- data path ----------------------------------------------------------------

    def _route(self, address: int, length: int, write: bool) -> Optional[int]:
        """Check and count one access; returns its region offset when the
        range register sends it through the MEE, else None.  An access
        that faults here is not counted."""
        self._check_powered()
        rr = self.range_register
        if rr.straddles(address, length):
            raise MemoryFault(
                f"{self.name}: access [{address}, {address + length}) straddles "
                "the protected-region boundary"
            )
        protected = rr.matches(address, length)
        if protected and self.mee is None:
            raise MemoryFault(f"{self.name}: protected access without an MEE")
        if write:
            self.stats.writes += 1
            self.stats.bytes_written += length
            self.stats.protected_writes += protected
        else:
            self.stats.reads += 1
            self.stats.bytes_read += length
            self.stats.protected_reads += protected
        if not protected:
            return None
        region = rr.region
        assert region is not None
        return address - region.base

    def read(self, address: int, length: int) -> Tuple[bytes, int]:
        """Read ``length`` bytes; returns ``(data, latency_ps)``."""
        offset = self._route(address, length, write=False)
        if offset is None:
            return self.device.read(address, length)
        return self.mee.read(offset, length)

    def write(self, address: int, data: bytes) -> int:
        """Write bytes; returns the access latency in picoseconds."""
        offset = self._route(address, len(data), write=True)
        if offset is None:
            return self.device.write(address, data)
        return self.mee.write(offset, data)

    def bulk_read(self, address: int, length: int) -> Tuple[bytes, int]:
        """:meth:`read` for a context-restore FSM: a protected range goes
        through the MEE's pipelined bulk path."""
        offset = self._route(address, length, write=False)
        if offset is None:
            return self.device.read(address, length)
        return self.mee.bulk_read(offset, length)

    def bulk_write(self, address: int, data: bytes) -> int:
        """:meth:`write` for a context-save FSM: a protected range goes
        through the MEE's pipelined bulk path."""
        offset = self._route(address, len(data), write=True)
        if offset is None:
            return self.device.write(address, data)
        return self.mee.bulk_write(offset, data)

    # --- self-refresh control ---------------------------------------------------------

    def enter_self_refresh(self) -> None:
        """Drive CKE low and put the device into self-refresh."""
        if hasattr(self.device, "enter_self_refresh"):
            self.device.enter_self_refresh()
        self.cke.deassert()

    def exit_self_refresh(self) -> None:
        """Raise CKE and bring the device back to the active state."""
        self.cke.assert_()
        if hasattr(self.device, "exit_self_refresh"):
            self.device.exit_self_refresh()

    @property
    def in_self_refresh(self) -> bool:
        return not bool(self.cke)

    # --- context save/restore state ------------------------------------------------------

    def export_state(self) -> dict:
        """The controller configuration the Boot FSM must restore."""
        region = self.range_register.region
        return {
            "protected_base": region.base if region else None,
            "protected_size": region.size if region else None,
            "locked": self.range_register.locked,
        }

    def import_state(self, state: dict) -> None:
        """Restore configuration after a power cycle."""
        if state.get("protected_base") is not None:
            self.range_register.reset()
            self.range_register.program(
                MemoryRegion(state["protected_base"], state["protected_size"])
            )
            if state.get("locked"):
                self.range_register.lock()
