"""DDR3L-style DRAM device with self-refresh and frequency scaling.

DRIPS entry step (4) "plac[es] DRAM into self-refresh mode with the help
of the CKE signal to avoid data loss" (Sec. 2.2).  In self-refresh the
device refreshes itself from its internal oscillator; the only thing the
processor must keep alive is the CKE drive — which is exactly the cost
that disappears when PCM replaces DRAM (Sec. 8.3).

Frequency scaling (Sec. 8.2) changes both the active power and the
effective bandwidth, which in turn stretches the context save/restore
latency.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import MemoryFault
from repro.memory.store import SparseMemory
from repro.power.domain import Component
from repro.units import GIB, PICOSECONDS_PER_SECOND


class _LatencyMemo(dict):
    """Latency in picoseconds per access length: a miss computes and keeps it."""

    def __init__(self, latency_ps: Callable[[int], int]) -> None:
        super().__init__()
        self._latency_ps = latency_ps

    def __missing__(self, length: int) -> int:
        latency_ps = self[length] = self._latency_ps(length)
        return latency_ps


class DRAMState(enum.Enum):
    """Power state of the DRAM device."""

    ACTIVE = "active"           # clocked, accessible
    SELF_REFRESH = "self_refresh"  # CKE low, data retained internally
    OFF = "off"                 # power removed, data lost


#: The one state that takes accesses; a module constant, since looking a
#: member up on the enum class costs more than the access check itself.
_ACTIVE = DRAMState.ACTIVE


class DRAMDevice:
    """A dual-channel DDR3L DIMM model.

    ``transfer_rate_hz`` is the data rate (e.g. 1.6e9 for DDR3L-1600).
    Effective sequential bandwidth is
    ``transfer_rate * bus_bytes * channels * bus_efficiency``.
    """

    def __init__(
        self,
        name: str,
        capacity_bytes: int = 8 * GIB,
        transfer_rate_hz: float = 1.6e9,
        channels: int = 2,
        bus_bytes: int = 8,
        bus_efficiency: float = 0.7,
        self_refresh_watts_per_gib: float = 0.0055,
        active_standby_watts_per_gib: float = 0.055,
        base_access_latency_ps: int = 50_000,  # ~50 ns closed-page access
        power_component: Optional[Component] = None,
    ) -> None:
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.transfer_rate_hz = transfer_rate_hz
        self.reference_rate_hz = 1.6e9
        self.channels = channels
        self.bus_bytes = bus_bytes
        self.bus_efficiency = bus_efficiency
        self.self_refresh_watts_per_gib = self_refresh_watts_per_gib
        self.active_standby_watts_per_gib = active_standby_watts_per_gib
        self.base_access_latency_ps = base_access_latency_ps
        self.power_component = power_component
        self._store = SparseMemory(capacity_bytes)
        self._state = DRAMState.ACTIVE
        self.bytes_read = 0
        self.bytes_written = 0
        #: Latency in picoseconds per access length at the current
        #: frequency; :meth:`set_frequency` drops it.
        self._costs = _LatencyMemo(self.transfer_latency_ps)
        #: Its lookup, bound once: the cost the store's gather charges per span.
        self._cost = self._costs.__getitem__
        self._update_power()

    # --- derived quantities ------------------------------------------------

    @property
    def capacity_gib(self) -> float:
        return self.capacity_bytes / GIB

    def bandwidth_bytes_per_s(self) -> float:
        """Effective sequential bandwidth at the current frequency."""
        return (
            self.transfer_rate_hz * self.bus_bytes * self.channels * self.bus_efficiency
        )

    def set_frequency(self, transfer_rate_hz: float) -> None:
        """Re-train the interface at a new data rate (Sec. 8.2 sweep)."""
        if transfer_rate_hz <= 0:
            raise MemoryFault(f"{self.name}: frequency must be positive")
        if self._state != DRAMState.ACTIVE:
            raise MemoryFault(f"{self.name}: retrain only in active state")
        self.transfer_rate_hz = transfer_rate_hz
        self._costs.clear()
        self._update_power()

    def _frequency_scale(self) -> float:
        return self.transfer_rate_hz / self.reference_rate_hz

    # --- power states --------------------------------------------------------

    @property
    def state(self) -> DRAMState:
        return self._state

    def enter_self_refresh(self) -> None:
        """CKE low: the device refreshes itself (data retained)."""
        if self._state == DRAMState.OFF:
            raise MemoryFault(f"{self.name}: device is off")
        self._state = DRAMState.SELF_REFRESH
        self._update_power()

    def exit_self_refresh(self) -> None:
        """CKE high: back to the active/idle state."""
        if self._state == DRAMState.OFF:
            raise MemoryFault(f"{self.name}: device is off")
        self._state = DRAMState.ACTIVE
        self._update_power()

    def power_off(self) -> None:
        """Remove power: all data is lost."""
        self._state = DRAMState.OFF
        self._store.erase()
        self._update_power()

    def power_on(self) -> None:
        """Restore power (content undefined, modeled zero-filled)."""
        self._state = DRAMState.ACTIVE
        self._update_power()

    def self_refresh_power_watts(self) -> float:
        """Self-refresh draw for the full device (frequency independent)."""
        return self.self_refresh_watts_per_gib * self.capacity_gib

    def active_standby_power_watts(self) -> float:
        """Idle-active draw; interface power scales with frequency."""
        scale = 0.4 + 0.6 * self._frequency_scale()
        return self.active_standby_watts_per_gib * self.capacity_gib * scale

    def _update_power(self) -> None:
        if self.power_component is None:
            return
        if self._state == DRAMState.OFF:
            self.power_component.set_power(0.0)
        elif self._state == DRAMState.SELF_REFRESH:
            self.power_component.set_power(self.self_refresh_power_watts())
        else:
            self.power_component.set_power(self.active_standby_power_watts())

    # --- access ----------------------------------------------------------------

    def _check_accessible(self) -> None:
        if self._state is not _ACTIVE:
            raise MemoryFault(f"{self.name}: access in state {self._state.value}")

    def transfer_latency_ps(self, length: int) -> int:
        """Latency of a sequential ``length``-byte transfer."""
        if length <= 0:
            return 0
        streaming = length / self.bandwidth_bytes_per_s() * PICOSECONDS_PER_SECOND
        return self.base_access_latency_ps + round(streaming)

    def read(self, address: int, length: int) -> tuple:
        """Read bytes; returns ``(data, latency_ps)``."""
        (data,), latency_ps = self.read_spans(((address, length),))
        return data, latency_ps

    def read_spans(self, spans: Sequence[Tuple[int, int]]) -> Tuple[List[bytes], int]:
        """Read several ``(address, length)`` spans; returns ``(chunks, latency_ps)``.

        The one charging path of reads: each span is checked, read and
        charged (``bytes_read``) exactly as a lone :meth:`read` would be,
        in order, and the latencies are summed.  One store gather
        (:meth:`~repro.memory.store.SparseMemory.read_spans`) slices the
        bytes and totals them and their latencies from the per-length
        memo.  A fault leaves the spans before it charged.
        """
        if not spans:
            return [], 0
        self._check_accessible()  # the state cannot change mid-call
        try:
            chunks, read, latency_ps = self._store.read_spans(spans, self._cost)
        except MemoryFault:
            # charge span by span up to the one that faults again
            for address, length in spans:
                self._store.read(address, length)
                self.bytes_read += length
            raise
        self.bytes_read += read
        return chunks, latency_ps

    def write(self, address: int, data: bytes) -> int:
        """Write bytes; returns the transfer latency in picoseconds."""
        self._check_accessible()
        self._store.write(address, data)
        self.bytes_written += len(data)
        return self._costs[len(data)]

    # --- charges without the bytes (the MEE's deferred bulk transfers) --------------

    def charge_read(self, address: int, length: int) -> int:
        """Check and charge a ``length``-byte read as :meth:`read` would, reading nothing."""
        self._check_accessible()
        self.bytes_read += length
        return self._costs[length]

    def charge_write(self, address: int, length: int) -> int:
        """Check and charge a ``length``-byte write as :meth:`write` would, storing nothing."""
        self._check_accessible()
        self.bytes_written += length
        return self._costs[length]
