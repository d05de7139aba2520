"""The compute domain: cores and graphics.

Models what the figures need: C0 power from the
:class:`~repro.config.ActivePowerModel` (the Fig. 6(b) frequency lever),
task execution time (fixed cycles / frequency — the race-to-sleep
mechanism), and context save/restore round trips.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Optional, Tuple

from repro.config import ActivePowerModel
from repro.effects import declares_effects
from repro.errors import FlowError
from repro.power.domain import Component, PowerDomain
from repro.units import PICOSECONDS_PER_SECOND

#: SHAKE-256 base images synthesized in this process, by ``(label,
#: length)``, least recently used first.  Every platform of one config
#: captures the same two images (system agent, cores), so one pair of
#: entries serves every boot; the bound keeps images of other context
#: sizes from piling up.
_BASES: "OrderedDict[Tuple[str, int], bytes]" = OrderedDict()
_BASE_SLOTS = 4


@declares_effects("module-state")  # a bounded memo of a pure function: results never see it
def _memoized_base(label: str, length: int) -> bytes:
    """``shake_256(label).digest(length)`` from :data:`_BASES`, hashed and kept on a miss."""
    key = (label, length)
    image = _BASES.get(key)
    if image is None:
        image = _BASES[key] = hashlib.shake_256(label.encode("utf-8")).digest(length)
        if len(_BASES) > _BASE_SLOTS:
            _BASES.popitem(last=False)
    else:
        _BASES.move_to_end(key)
    return image


def synthesize_context(label: str, length: int, generation: int = 0) -> bytes:
    """Deterministic pseudo-random context bytes (CSRs, patches, fuses).

    Deterministic so tests can verify the save/restore round trip
    bit-for-bit; parameterized by ``generation`` so successive DRIPS
    cycles store *different* context (catching stale-restore bugs).

    Image contract: generation ``g`` is one SHAKE-256 output of ``label``
    rotated left by ``g % length`` bytes, so consecutive generations are
    one-byte rotations of each other (for random bytes they differ at
    about 255/256 of positions) and :class:`ContextImage` advances a held
    image without hashing again. The restore check compares the whole
    image. No simulated cost reads the bytes, only their length.

    The SHAKE-256 output depends only on ``label`` and ``length``, so it
    is hashed once per process and kept in a small memo
    (:data:`_BASES`) that every later platform's first capture reads.
    The memo is keyed by length as well as label: SHAKE outputs of one
    label at two lengths share a prefix but are different images.
    """
    if length < 0:
        raise FlowError(f"{label}: negative context length {length}")
    if length == 0:
        return b""
    image = _memoized_base(label, length)
    shift = generation % length
    return image[shift:] + image[:shift]


class ContextImage:
    """The context one owner captures before DRIPS and checks on exit.

    The first capture synthesizes generation 1; each later capture
    rotates the held image left by one byte, which equals
    ``synthesize_context(label, length, generation)`` without a hash call.
    """

    def __init__(
        self,
        label: str,
        length: int,
        owner: str,
        mismatch: str = "restored context does not match saved context",
    ) -> None:
        self.label = label
        self.length = length
        self.owner = owner
        self.mismatch = mismatch
        self.generation = 0
        self.image: Optional[bytes] = None

    def capture(self) -> bytes:
        self.generation += 1
        if self.image is None:
            self.image = synthesize_context(self.label, self.length, self.generation)
        else:
            self.image = self.image[1:] + self.image[:1]
        return self.image

    def verify(self, blob: bytes) -> None:
        if self.image is None:
            raise FlowError(f"{self.owner}: no context was captured")
        if blob != self.image:
            raise FlowError(f"{self.owner}: {self.mismatch}")


class ComputeDomain:
    """Cores + graphics behind the compute voltage regulators."""

    def __init__(
        self,
        name: str,
        domain: PowerDomain,
        active_model: ActivePowerModel,
        frequency_ghz: float,
        context_bytes: int,
    ) -> None:
        self.name = name
        self.active_model = active_model
        self.frequency_ghz = frequency_ghz
        self.context_bytes = context_bytes
        self.component: Component = domain.new_component(f"{name}.compute")
        self.domain = domain
        self._active = False
        self._context = ContextImage(name, context_bytes, owner=name)
        self.tasks_run = 0

    # --- frequency -----------------------------------------------------------

    def set_frequency(self, frequency_ghz: float) -> None:
        """Change the core clock (the Fig. 6(b) sweep lever)."""
        if frequency_ghz <= 0:
            raise FlowError(f"{self.name}: frequency must be positive")
        self.frequency_ghz = frequency_ghz
        if self._active:
            self._apply_active_power()

    @property
    def voltage(self) -> float:
        return self.active_model.voltage(self.frequency_ghz)

    # --- activity ---------------------------------------------------------------

    @property
    def active(self) -> bool:
        return self._active

    def start(self) -> None:
        """Enter C0 (domain must be powered)."""
        if not self.domain.delivering:
            raise FlowError(f"{self.name}: compute rail is off")
        self._active = True
        self._apply_active_power()

    def stop(self) -> None:
        """Leave C0 (clock-gate; power drops to near zero)."""
        self._active = False
        self.component.set_power(0.0)

    def _apply_active_power(self) -> None:
        self.component.set_dynamic(self.active_model.core_dynamic_watts(self.frequency_ghz))

    def task_duration_ps(self, cycles: int) -> int:
        """Execution time of a ``cycles``-long task at the current clock."""
        if cycles < 0:
            raise FlowError("cycles cannot be negative")
        seconds = cycles / (self.frequency_ghz * 1e9)
        return round(seconds * PICOSECONDS_PER_SECOND)

    def run_task(self, cycles: int) -> int:
        """Account one task; returns its duration in picoseconds."""
        if not self._active:
            raise FlowError(f"{self.name}: cannot run a task while idle")
        self.tasks_run += 1
        return self.task_duration_ps(cycles)

    # --- context ---------------------------------------------------------------------

    def capture_context(self) -> bytes:
        """Produce the context blob to save before power-gating."""
        return self._context.capture()

    def verify_restored(self, blob: bytes) -> None:
        """Check a restored blob against what was captured."""
        self._context.verify(blob)

    @property
    def expected_context(self) -> Optional[bytes]:
        return self._context.image
