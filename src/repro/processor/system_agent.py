"""The system agent: memory controller, SA context, and the flush FSMs.

"The system agent houses the traditional Northbridge.  It contains
several functionalities, such as the memory controller and the IO
controllers" (Sec. 2.2, footnote 1).  Its context (configuration/status
registers, firmware persistent data) is what DRIPS entry step (3) stores
into the SA S/R SRAM — or, with CTX-SGX-DRAM, what the SA FSM flushes
into the protected DRAM region (Fig. 4).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import FlowError
from repro.memory.controller import MemoryController
from repro.processor.core import ContextImage


class SystemAgent:
    """SA context ownership plus the two context-flushing FSMs.

    The FSM layout follows Fig. 4: the **SA FSM** moves the system-agent
    context; the **LLC FSM** (located near the LLC) moves the cores +
    graphics context.  Both address the protected region through the
    memory controller, which redirects them into the MEE.
    """

    def __init__(
        self,
        controller: MemoryController,
        context_bytes: int,
    ) -> None:
        self.controller = controller
        self.context_bytes = context_bytes
        self._context = ContextImage(
            "system_agent", context_bytes, owner="system agent",
            mismatch="restored context does not match",
        )
        #: Base addresses the PMU firmware programs before triggering the
        #: FSMs ("The PMU firmware configures each FSM with the
        #: protected-memory base-address (BaseAddr)", Sec. 6.2).
        self.sa_base_addr: Optional[int] = None
        self.compute_base_addr: Optional[int] = None

    # --- SA context -----------------------------------------------------------

    def capture_context(self) -> bytes:
        """Produce the SA context blob to be saved."""
        return self._context.capture()

    def verify_restored(self, blob: bytes) -> None:
        self._context.verify(blob)

    @property
    def expected_context(self) -> Optional[bytes]:
        return self._context.image

    # --- FSM configuration ---------------------------------------------------------

    def configure_fsms(self, sa_base_addr: int, compute_base_addr: int) -> None:
        """Program the protected-region base addresses into both FSMs."""
        if sa_base_addr < 0 or compute_base_addr < 0:
            raise FlowError("FSM base addresses must be non-negative")
        self.sa_base_addr = sa_base_addr
        self.compute_base_addr = compute_base_addr

    def _require_configured(self) -> None:
        if self.sa_base_addr is None or self.compute_base_addr is None:
            raise FlowError("FSM base addresses not configured by PMU firmware")

    # --- flush / restore through the memory controller -------------------------------

    def sa_fsm_flush(self, blob: bytes) -> int:
        """SA FSM: write the SA context to the protected region.

        Returns the transfer latency (through the MEE when the region is
        protected).
        """
        self._require_configured()
        assert self.sa_base_addr is not None
        return self.controller.bulk_write(self.sa_base_addr, blob)

    def sa_fsm_restore(self, length: int) -> Tuple[bytes, int]:
        """SA FSM: read the SA context back; returns ``(blob, latency)``."""
        self._require_configured()
        assert self.sa_base_addr is not None
        return self.controller.bulk_read(self.sa_base_addr, length)

    def llc_fsm_flush(self, blob: bytes) -> int:
        """LLC FSM: write the cores + graphics context."""
        self._require_configured()
        assert self.compute_base_addr is not None
        return self.controller.bulk_write(self.compute_base_addr, blob)

    def llc_fsm_restore(self, length: int) -> Tuple[bytes, int]:
        """LLC FSM: read the cores + graphics context back."""
        self._require_configured()
        assert self.compute_base_addr is not None
        return self.controller.bulk_read(self.compute_base_addr, length)
