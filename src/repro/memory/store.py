"""Sparse byte-addressable backing store.

Devices up to gigabytes are modeled without allocating their capacity:
pages materialize on first write.  Reads of never-written bytes return the
device's fill value (DRAM powers up with undefined content; we use 0 for
determinism).
"""

from __future__ import annotations

from typing import Dict

from repro.errors import MemoryFault

PAGE_SIZE = 4096


class SparseMemory:
    """A dict-of-pages byte store with range checking."""

    def __init__(self, capacity_bytes: int, fill: int = 0) -> None:
        if capacity_bytes <= 0:
            raise MemoryFault(f"capacity must be positive, got {capacity_bytes}")
        if not 0 <= fill <= 0xFF:
            raise MemoryFault(f"fill byte out of range: {fill}")
        self.capacity_bytes = capacity_bytes
        self.fill = fill
        self._pages: Dict[int, bytearray] = {}

    def _check_range(self, address: int, length: int) -> None:
        if address < 0 or length < 0 or address + length > self.capacity_bytes:
            raise MemoryFault(
                f"access [{address}, {address + length}) outside capacity "
                f"{self.capacity_bytes}"
            )

    def read(self, address: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``address``."""
        self._check_range(address, length)
        page_index, page_offset = divmod(address, PAGE_SIZE)
        if page_offset + length <= PAGE_SIZE:
            page = self._pages.get(page_index)
            if page is None:
                return bytes([self.fill]) * length
            return bytes(page[page_offset : page_offset + length])
        out = bytearray(length)
        offset = 0
        while offset < length:
            page_index, page_offset = divmod(address + offset, PAGE_SIZE)
            chunk = min(length - offset, PAGE_SIZE - page_offset)
            page = self._pages.get(page_index)
            if page is None:
                out[offset : offset + chunk] = bytes([self.fill]) * chunk
            else:
                out[offset : offset + chunk] = page[page_offset : page_offset + chunk]
            offset += chunk
        return bytes(out)

    def write(self, address: int, data: bytes) -> None:
        """Write ``data`` starting at ``address``."""
        self._check_range(address, len(data))
        offset = 0
        while offset < len(data):
            page_index, page_offset = divmod(address + offset, PAGE_SIZE)
            chunk = min(len(data) - offset, PAGE_SIZE - page_offset)
            page = self._pages.get(page_index)
            if page is None:
                page = bytearray([self.fill]) * PAGE_SIZE
                self._pages[page_index] = page
            page[page_offset : page_offset + chunk] = data[offset : offset + chunk]
            offset += chunk

    def erase(self) -> None:
        """Drop all content (models power loss of volatile devices)."""
        self._pages.clear()

    @property
    def resident_pages(self) -> int:
        """Number of materialized pages (diagnostic)."""
        return len(self._pages)
