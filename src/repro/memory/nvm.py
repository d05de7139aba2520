"""Emerging non-volatile memories: PCM and embedded MRAM (Sec. 8.3).

Both devices retain data with their supply removed, which is exactly what
makes them attractive as context stores:

* **eMRAM** (on-die): the paper assumes an *optimistic* design with
  SRAM-comparable endurance, power, and performance — the context stays on
  die and the voltage source is simply turned off in ODRIPS
  (``ODRIPS-MRAM``).
* **PCM** (replacing DRAM as main memory): non-volatility obviates
  self-refresh *and* the CKE drive from the processor (``ODRIPS-PCM``),
  which is where the large 37 % average-power reduction comes from.

Both track write endurance so tests can exercise the paper's stated
concern that "many emerging eNVMs still suffer from low endurance".
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import MemoryFault
from repro.memory.store import SparseMemory
from repro.power.domain import Component
from repro.units import GIB, PICOSECONDS_PER_SECOND


class NVMDevice:
    """Base non-volatile device: zero standby power, persistent contents."""

    def __init__(
        self,
        name: str,
        capacity_bytes: int,
        read_bandwidth_bytes_per_s: float,
        write_bandwidth_bytes_per_s: float,
        base_read_latency_ps: int,
        base_write_latency_ps: int,
        standby_watts: float = 0.0,
        endurance_cycles: Optional[int] = None,
        power_component: Optional[Component] = None,
    ) -> None:
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.read_bandwidth_bytes_per_s = read_bandwidth_bytes_per_s
        self.write_bandwidth_bytes_per_s = write_bandwidth_bytes_per_s
        self.base_read_latency_ps = base_read_latency_ps
        self.base_write_latency_ps = base_write_latency_ps
        self.standby_watts = standby_watts
        #: Interface/controller draw while the host actively uses the
        #: device (bus PHY, row buffers).  An NVM used as *main memory*
        #: pays this in the Active state just like DRAM; non-volatility
        #: only removes the standby (refresh/CKE) cost.
        self.interface_watts = 0.0
        self.endurance_cycles = endurance_cycles
        self.power_component = power_component
        self._store = SparseMemory(capacity_bytes)
        self._powered = True
        self._interface_active = False
        self.bytes_read = 0
        self.bytes_written = 0
        self.max_writes_per_region = 0
        self._write_counts: dict = {}
        self._update_power()

    # --- power ---------------------------------------------------------------

    @property
    def powered(self) -> bool:
        return self._powered

    def power_off(self) -> None:
        """Remove power.  Contents persist — that is the whole point."""
        self._powered = False
        self._update_power()

    def power_on(self) -> None:
        """Restore power; contents are exactly as left."""
        self._powered = True
        self._update_power()

    def set_interface_active(self, active: bool) -> None:
        """Mark the host interface as in-use (Active state) or idle."""
        self._interface_active = active
        self._update_power()

    def _update_power(self) -> None:
        if self.power_component is None:
            return
        if not self._powered:
            self.power_component.set_power(0.0)
            return
        watts = self.standby_watts
        if self._interface_active:
            watts += self.interface_watts
        self.power_component.set_power(watts)

    # --- access ----------------------------------------------------------------

    def _check_powered(self) -> None:
        if not self._powered:
            raise MemoryFault(f"{self.name}: access while powered off")

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
        bytes and totals them and their latencies, each computed from the
        read bandwidth as it is now (a public attribute, so no memo).  A
        fault leaves the spans before it charged.
        """
        if not spans:
            return [], 0
        self._check_powered()  # power cannot change mid-call
        try:
            chunks, read, latency_ps = self._store.read_spans(spans, self._read_cost)
        except MemoryFault:
            # charge span by span up to the one that faults again
            for address, length in spans:
                self._store.read(address, length)
                self.bytes_read += length
            raise
        self.bytes_read += read
        return chunks, latency_ps

    def _read_cost(self, length: int) -> int:
        """Latency in picoseconds of one ``length``-byte read."""
        streaming = length / self.read_bandwidth_bytes_per_s * PICOSECONDS_PER_SECOND
        return self.base_read_latency_ps + round(streaming)

    def write(self, address: int, data: bytes) -> int:
        """Write bytes; returns latency and tracks endurance per 4 KiB region.

        The bytes are stored before the endurance check, which may raise.
        """
        self._check_powered()
        self._store.write(address, data)
        return self.charge_write(address, len(data))

    # --- charges without the bytes (the MEE's deferred bulk transfers) --------------

    def charge_read(self, address: int, length: int) -> int:
        """Check and charge a ``length``-byte read as :meth:`read` would, reading nothing."""
        self._check_powered()
        self.bytes_read += length
        return self._read_cost(length)

    def charge_write(self, address: int, length: int) -> int:
        """Check and charge a ``length``-byte write as :meth:`write` would, storing nothing.

        Counts the write against every 4 KiB region it covers and raises
        :class:`~repro.errors.MemoryFault` past the endurance limit.
        """
        self._check_powered()
        self.bytes_written += length
        first_region = address // 4096
        last_region = (address + max(length - 1, 0)) // 4096
        for region in range(first_region, last_region + 1):
            count = self._write_counts.get(region, 0) + 1
            self._write_counts[region] = count
            if count > self.max_writes_per_region:
                self.max_writes_per_region = count
            if self.endurance_cycles is not None and count > self.endurance_cycles:
                raise MemoryFault(
                    f"{self.name}: endurance exceeded on region {region} "
                    f"({count} > {self.endurance_cycles} writes)"
                )
        streaming = length / self.write_bandwidth_bytes_per_s * PICOSECONDS_PER_SECOND
        return self.base_write_latency_ps + round(streaming)

    def wear_level_report(self) -> dict:
        """Write counts per 4 KiB region (diagnostic for endurance tests)."""
        return dict(self._write_counts)


class PCMDevice(NVMDevice):
    """Phase-change memory as a DRAM-replacing main memory.

    Parameters follow the PCM literature the paper cites (Lee et al.,
    Qureshi et al.): reads a few times slower than DRAM, writes an order
    of magnitude slower, endurance around 1e8 writes.
    """

    def __init__(
        self,
        name: str = "pcm",
        capacity_bytes: int = 8 * GIB,
        power_component: Optional[Component] = None,
    ) -> None:
        super().__init__(
            name=name,
            capacity_bytes=capacity_bytes,
            read_bandwidth_bytes_per_s=6.0e9,
            write_bandwidth_bytes_per_s=1.5e9,
            base_read_latency_ps=150_000,       # ~150 ns
            base_write_latency_ps=1_000_000,    # ~1 us
            standby_watts=0.0,                  # no refresh, no CKE
            endurance_cycles=100_000_000,
            power_component=power_component,
        )


class EMRAMDevice(NVMDevice):
    """Embedded MRAM context store (on-die, optimistic design).

    The paper's Sec. 8.3 assumes eMRAM "that has comparable 1) endurance,
    2) power consumption, and 3) performance to SRAM", so the device is
    fast, cheap to access, and simply turned off in ODRIPS-MRAM.
    """

    def __init__(
        self,
        name: str = "emram",
        capacity_bytes: int = 256 * 1024,
        power_component: Optional[Component] = None,
    ) -> None:
        super().__init__(
            name=name,
            capacity_bytes=capacity_bytes,
            read_bandwidth_bytes_per_s=20.0e9,
            write_bandwidth_bytes_per_s=10.0e9,
            base_read_latency_ps=5_000,     # ~5 ns
            base_write_latency_ps=10_000,   # ~10 ns
            standby_watts=0.0,
            endurance_cycles=None,          # SRAM-comparable endurance
            power_component=power_component,
        )
