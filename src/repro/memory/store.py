"""Sparse byte-addressable backing store.

Devices up to gigabytes are modeled without allocating their capacity:
pages materialize on first write.  Reads of never-written bytes return the
device's fill value (DRAM powers up with undefined content; we use 0 for
determinism).

A store has one deferral slot.  An owner that has taken writes without
storing their bytes yet (the MEE's bulk path, :mod:`repro.sgx.mee`)
passes the spans those bytes will occupy to :meth:`SparseMemory.defer`.
Any ``read``, ``read_spans``, ``write`` or ``erase`` that overlaps one
first calls the owner's ``materialize()``, which stores them.  So every
reader of the store, a tamper test writing to it included, sees the
bytes as if they had been stored when they were written.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
        #: ``(owner, spans)`` while an owner holds bytes it has not
        #: stored, else None, and then an access pays one attribute test
        self._deferred: Optional[Tuple[object, Sequence[Tuple[int, int]]]] = None

    # --- deferral -------------------------------------------------------------

    def defer(self, owner, spans: Sequence[Tuple[int, int]]) -> None:
        """Hold the ``(address, length)`` ``spans`` for ``owner``.

        Until :meth:`release`, any access that overlaps a span calls
        ``owner.materialize()`` first; it must release the slot, then
        write the bytes.  Another owner's deferral is settled first.
        """
        if self._deferred is not None and self._deferred[0] is not owner:
            self._deferred[0].materialize()
        self._deferred = (owner, spans)

    def release(self) -> None:
        """Empty the deferral slot (the owner is storing its bytes)."""
        self._deferred = None

    def _settle(self, address: int, length: int) -> None:
        """Materialize the deferred bytes if ``[address, address + length)`` overlaps them."""
        owner, spans = self._deferred
        end = address + length
        for start, size in spans:
            if address < start + size and start < end:
                owner.materialize()
                return

    def peek(self, address: int, length: int) -> bytes:
        """:meth:`read` without settling the deferral: the stored bytes.

        For the deferring owner, which knows which of them are stale.
        """
        deferred, self._deferred = self._deferred, None
        try:
            return self.read(address, length)
        finally:
            self._deferred = deferred

    def _check_range(self, address: int, length: int) -> None:
        if address < 0 or length < 0 or address + length > self.capacity_bytes:
            raise MemoryFault(
                f"access [{address}, {address + length}) outside capacity "
                f"{self.capacity_bytes}"
            )

    def read(self, address: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``address``."""
        if self._deferred is not None:
            self._settle(address, length)
        self._check_range(address, length)
        # one join over whole pages and views, no per-page copy
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

    def read_spans(
        self, spans: Sequence[Tuple[int, int]], cost: Callable[[int], int]
    ) -> Tuple[List[bytes], int, int]:
        """:meth:`read` of each ``(address, length)`` span, in order, with its charge.

        Returns ``(chunks, bytes, cost)``: the chunks, their total length
        and the sum of ``cost(length)`` over the spans, all from one
        pass.  A span inside one page is sliced here while the deferral
        slot is empty; any other goes through :meth:`read`.  A bad span
        raises :class:`~repro.errors.MemoryFault` after the spans before
        it were read.
        """
        pages = self._pages
        capacity = self.capacity_bytes
        deferred = self._deferred is not None
        chunks = []
        total = charged = 0
        for address, length in spans:
            start = address % PAGE_SIZE
            end = start + length
            if not deferred and start <= end <= PAGE_SIZE and 0 <= address <= capacity - length:
                page = pages.get(address // PAGE_SIZE)
                if page is None:
                    chunks.append(bytes([self.fill]) * length)
                else:
                    chunks.append(bytes(page[start:end]))
            else:
                chunks.append(self.read(address, length))
            total += length
            charged += cost(length)
        return chunks, total, charged

    def write(self, address: int, data: bytes) -> None:
        """Write ``data`` starting at ``address``.

        The store keeps its own copy: later changes to a caller's
        ``bytearray`` do not reach it.
        """
        length = len(data)
        if self._deferred is not None:
            self._settle(address, length)
        page_offset = address % PAGE_SIZE
        if 0 < length < PAGE_SIZE - page_offset and 0 <= address <= self.capacity_bytes - length:
            # inside one page and not all of it, in range: one slice assignment
            page = self._pages.get(address // PAGE_SIZE)
            if page is None:
                page = self._pages[address // PAGE_SIZE] = bytearray([self.fill]) * PAGE_SIZE
            page[page_offset : page_offset + length] = data
            return
        self._check_range(address, length)
        # a write that spans pages is sliced through a view, so no chunk is
        # copied twice; a one-page write slices ``data`` itself, which for
        # ``bytes`` is no copy and costs less than making the view
        if length > PAGE_SIZE - page_offset:
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
        if self._deferred is not None:
            self._deferred[0].materialize()
        self._pages.clear()

    @property
    def resident_pages(self) -> int:
        """Number of materialized pages (diagnostic)."""
        return len(self._pages)
