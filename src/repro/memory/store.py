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
        # multi-page: one join over whole pages and views, no per-page copy
        parts = []
        offset = 0
        while offset < length:
            page_index, page_offset = divmod(address + offset, PAGE_SIZE)
            chunk = min(length - offset, PAGE_SIZE - page_offset)
            page = self._pages.get(page_index)
            if page is None:
                parts.append(bytes([self.fill]) * chunk)
            elif chunk == PAGE_SIZE:
                parts.append(page)
            else:
                parts.append(memoryview(page)[page_offset : page_offset + chunk])
            offset += chunk
        return b"".join(parts)

    def write(self, address: int, data: bytes) -> None:
        """Write ``data`` starting at ``address``.

        The store keeps its own copy: later changes to a caller's
        ``bytearray`` do not reach it.
        """
        length = len(data)
        self._check_range(address, length)
        # a write that spans pages is sliced through a view, so no chunk is
        # copied twice; a one-page write slices ``data`` itself, which for
        # ``bytes`` is no copy and costs less than making the view
        if length > PAGE_SIZE - address % PAGE_SIZE:
            data = memoryview(data)
        offset = 0
        while offset < length:
            page_index, page_offset = divmod(address + offset, PAGE_SIZE)
            chunk = min(length - offset, PAGE_SIZE - page_offset)
            if chunk == PAGE_SIZE:
                # a whole page: replace it instead of filling then copying
                self._pages[page_index] = bytearray(data[offset : offset + PAGE_SIZE])
            else:
                page = self._pages.get(page_index)
                if page is None:
                    page = self._pages[page_index] = bytearray([self.fill]) * PAGE_SIZE
                page[page_offset : page_offset + chunk] = data[offset : offset + chunk]
            offset += chunk

    def erase(self) -> None:
        """Drop all content (models power loss of volatile devices)."""
        self._pages.clear()

    @property
    def resident_pages(self) -> int:
        """Number of materialized pages (diagnostic)."""
        return len(self._pages)
