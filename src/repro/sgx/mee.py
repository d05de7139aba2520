"""The memory-encryption engine (MEE) read/write pipeline.

Every access to the protected region goes through here (Fig. 4): writes
are encrypted and authenticated, reads are decrypted after the integrity
tree confirms both the MAC and the freshness of the version counter.
A bulk (FSM) write runs its crypto only once something can observe the
DRAM bytes, and then stores the bytes an immediate seal would have.

Latency model: the crypto pipeline adds a fixed per-block latency and the
tree walk adds real (modeled) DRAM metadata accesses — serialized, which
is pessimistic but shape-preserving.  The MEE cache shortcuts the walk on
hits, which is what the cache-size ablation measures.
"""

from __future__ import annotations

import hashlib
import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.effects import declares_effects
from repro.errors import SecurityError
from repro.sgx.cache import MEECache
from repro.sgx.crypto import CtrCipher, MacKey, derive_key
from repro.sgx.integrity_tree import (
    BLOCK_SIZE,
    IntegrityTree,
    RegionImage,
    TreeGeometry,
    seal_initial_image,
)

#: Version-0 region images sealed in this process, by fingerprint of the
#: engine's derived keys and geometry (:meth:`MemoryEncryptionEngine.initialize_region`),
#: least recently used first.  Every platform seals the same region under
#: the same key, so one entry serves every boot; the bound keeps regions
#: of other sizes or keys from piling up.
_IMAGES: "OrderedDict[bytes, RegionImage]" = OrderedDict()
_IMAGE_SLOTS = 2


def region_image(geometry: TreeGeometry, cipher: CtrCipher, mac_key: MacKey) -> RegionImage:
    """The version-0 image of ``geometry``'s region: every block a sealed zero block."""
    zero_block = bytes(BLOCK_SIZE)
    ciphertext = b"".join(
        cipher.encrypt(geometry.block_address(block), 0, zero_block)
        for block in range(geometry.data_blocks)
    )
    return seal_initial_image(geometry, mac_key, ciphertext)


@declares_effects("module-state")  # a bounded memo of a pure function: results never see it
def _memoized_image(
    fingerprint: bytes, geometry: TreeGeometry, cipher: CtrCipher, mac_key: MacKey
) -> RegionImage:
    """:func:`region_image` from :data:`_IMAGES`, sealed and kept on a miss."""
    image = _IMAGES.get(fingerprint)
    if image is None:
        image = _IMAGES[fingerprint] = region_image(geometry, cipher, mac_key)
        if len(_IMAGES) > _IMAGE_SLOTS:
            _IMAGES.popitem(last=False)
    else:
        _IMAGES.move_to_end(fingerprint)
    return image


@dataclass
class MEEStats:
    """Cumulative traffic statistics of the engine."""

    bytes_written: int = 0
    bytes_read: int = 0
    blocks_written: int = 0
    blocks_read: int = 0
    integrity_violations: int = 0

    def reset(self) -> None:
        self.bytes_written = 0
        self.bytes_read = 0
        self.blocks_written = 0
        self.blocks_read = 0
        self.integrity_violations = 0


class MemoryEncryptionEngine:
    """Encrypt/MAC/tree-walk pipeline over one protected region."""

    #: Crypto pipeline latency per 64-byte block (~25 ns: AES pipeline
    #: depth at memory-controller clock; same order as Gueron reports).
    CRYPTO_LATENCY_PS = 25_000

    def __init__(
        self,
        device,
        geometry: TreeGeometry,
        master_key: bytes,
        cache: Optional[MEECache] = None,
    ) -> None:
        self.device = device
        self.geometry = geometry
        self.cache = cache if cache is not None else MEECache()
        cipher_key = derive_key(master_key, "mee-encrypt")
        mac_key = derive_key(master_key, "mee-mac")
        self._cipher = CtrCipher(cipher_key)
        self._mac = MacKey(mac_key)
        layout = repr((geometry.region_base, geometry.data_blocks, geometry.level_counts))
        #: Names this engine's region image in :data:`_IMAGES`; never the keys themselves.
        self._image_key = hashlib.sha256(cipher_key + mac_key + layout.encode()).digest()
        self.tree = IntegrityTree(geometry, device, self._mac, self.cache)
        self._data_offset = geometry.data_offset
        self.stats = MEEStats()
        self._powered = True
        self._initialized = False

    # --- lifecycle ---------------------------------------------------------

    def initialize_region(self) -> None:
        """Zero the region and set up consistent metadata (once per reset).

        Every data block is written as the version-0 ciphertext of a zero
        block, so a fresh region reads back as zeros through the engine —
        and the at-rest bytes are still keystream, never plaintext.

        The image of those bytes (:func:`region_image`) depends only on
        the derived keys and the geometry, so it is sealed once per
        process and replayed at every later set-up.  It is complete
        before the first device call, and the device calls are the same
        either way: the data write, then :meth:`IntegrityTree.initialize`.
        A device that faults part-way leaves what an eager set-up leaves.
        """
        image = _memoized_image(self._image_key, self.geometry, self._cipher, self._mac)
        self.device.write(self.geometry.data_offset, image.ciphertext)
        self.tree.initialize(image)
        self._initialized = True

    @property
    def powered(self) -> bool:
        return self._powered

    def power_off(self) -> bytes:
        """Power the engine down; returns the state that must survive.

        The root counter is the only mutable secret — it goes into the
        Boot SRAM as part of the ~1 KB on-chip residual context (Sec. 6.2).
        """
        self._powered = False
        self.cache.flush()
        return self.export_state()

    def power_on(self, state: bytes) -> None:
        """Restore the engine from its exported state."""
        self.import_state(state)
        self._powered = True

    def export_state(self) -> bytes:
        """Serialize the on-chip trusted state (root counter)."""
        return struct.pack(">QB", self.tree.root_counter, 1 if self._initialized else 0)

    def import_state(self, state: bytes) -> None:
        """Inverse of :meth:`export_state`."""
        if len(state) != 9:
            raise SecurityError("malformed MEE state blob")
        root, initialized = struct.unpack(">QB", state)
        if root != self.tree.root_counter:
            self.tree.materialize()  # store pending writes before their root is replaced
        self.tree.root_counter = root
        self._initialized = bool(initialized)

    def _check_ready(self) -> None:
        if not self._powered:
            raise SecurityError("MEE is powered off")
        if not self._initialized:
            raise SecurityError("protected region not initialized")

    # --- data path -------------------------------------------------------------

    @property
    def data_capacity(self) -> int:
        """Protected data bytes available behind the engine."""
        return self.geometry.data_blocks * BLOCK_SIZE

    def _check_bounds(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.data_capacity:
            raise SecurityError(
                f"protected access [{offset}, {offset + length}) outside "
                f"data capacity {self.data_capacity}"
            )

    def write(self, offset: int, data: bytes) -> int:
        """Encrypt-and-store ``data`` at region ``offset``; returns latency."""
        self._check_ready()
        self._check_bounds(offset, len(data))
        latency = 0
        position = 0
        while position < len(data):
            block = (offset + position) // BLOCK_SIZE
            block_offset = (offset + position) % BLOCK_SIZE
            chunk = min(len(data) - position, BLOCK_SIZE - block_offset)
            latency += self._write_block(
                block, block_offset, data[position : position + chunk]
            )
            position += chunk
        self.stats.bytes_written += len(data)
        return latency

    def _write_block(self, block: int, block_offset: int, chunk: bytes) -> int:
        latency = 0
        address = self._data_offset + block * BLOCK_SIZE  # the caller checked the bounds
        if len(chunk) == BLOCK_SIZE:
            plaintext = chunk
        else:
            # read-modify-write of a partial block (verified read first)
            old, read_latency = self._read_block(block)
            latency += read_latency
            merged = bytearray(old)
            merged[block_offset : block_offset + len(chunk)] = chunk
            plaintext = bytes(merged)
        version = self.tree.read_version(block) + 1
        ciphertext = self._cipher.encrypt(address, version, plaintext)
        before = self.tree.metadata_latency_ps
        latency += self.device.write(address, ciphertext)
        self.tree.update_block(block, version, ciphertext)
        latency += self.tree.metadata_latency_ps - before
        latency += self.CRYPTO_LATENCY_PS
        self.stats.blocks_written += 1
        return latency

    def read(self, offset: int, length: int) -> Tuple[bytes, int]:
        """Verify-and-decrypt ``length`` bytes; returns ``(data, latency)``."""
        self._check_ready()
        self._check_bounds(offset, length)
        parts = []
        latency = 0
        position = 0
        while position < length:
            block = (offset + position) // BLOCK_SIZE
            block_offset = (offset + position) % BLOCK_SIZE
            chunk = min(length - position, BLOCK_SIZE - block_offset)
            plaintext, block_latency = self._read_block(block)
            latency += block_latency
            parts.append(plaintext[block_offset : block_offset + chunk])
            position += chunk
        self.stats.bytes_read += length
        return b"".join(parts), latency

    def _read_block(self, block: int) -> Tuple[bytes, int]:
        address = self._data_offset + block * BLOCK_SIZE  # the caller checked the bounds
        ciphertext, latency = self.device.read(address, BLOCK_SIZE)
        before = self.tree.metadata_latency_ps
        try:
            version = self.tree.verify_block(block, ciphertext)
        except SecurityError:
            self.stats.integrity_violations += 1
            raise
        latency += self.tree.metadata_latency_ps - before
        latency += self.CRYPTO_LATENCY_PS
        self.stats.blocks_read += 1
        plaintext = self._cipher.decrypt(address, version, ciphertext)
        return plaintext, latency

    # --- bulk (FSM) transfers ---------------------------------------------------------

    #: Pipeline fill/setup latency of a bulk FSM transfer: FSM start, DRAM
    #: DLL wake, crypto pipeline fill (~1 us, amortized over the stream).
    BULK_FILL_LATENCY_PS = 1_000_000

    LEAF_ENTRY_BYTES = 16   # version (8) + MAC (8)
    NODE_ENTRY_BYTES = 16   # counter (8) + MAC (8)

    def _bandwidth(self, write: bool) -> float:
        if hasattr(self.device, "bandwidth_bytes_per_s"):
            return self.device.bandwidth_bytes_per_s()
        if write:
            return self.device.write_bandwidth_bytes_per_s
        return self.device.read_bandwidth_bytes_per_s

    def _touched_geometry(self, offset: int, length: int) -> Tuple[int, int]:
        """(data blocks, interior tree nodes) a non-empty bulk access touches."""
        first_block = offset // BLOCK_SIZE
        last_block = (offset + length - 1) // BLOCK_SIZE
        spans = self.tree.node_spans(first_block, last_block)
        return last_block - first_block + 1, sum(hi - lo + 1 for lo, hi in spans)

    def bulk_write(self, offset: int, data: bytes) -> int:
        """Write a large contiguous range the way the save FSM does.

        The effect is that of :meth:`write`, but whole blocks are
        committed as one batch (:meth:`IntegrityTree.update_range`): one
        write each for ciphertext, versions and MACs, each touched tree
        node re-MAC'd once.  The batch's counters, root, cache traffic,
        stats and device charges happen now; its encryption and MACs run
        only when something can observe the DRAM bytes (the store's
        deferral slot), and store exactly the bytes they would have
        stored now.  Partial edge blocks keep :meth:`write`'s verified
        read-modify-write, in its order.

        The returned latency models the *pipelined* engine with a
        write-back metadata cache: data and metadata stream over the
        memory bus back-to-back instead of serializing a full tree walk
        per block.  This is the model behind the paper's ~18 us save of a
        200 KB context to DDR3-1600 (Sec. 6.3).  An empty write touches
        nothing and takes 0.
        """
        self._check_ready()
        self._check_bounds(offset, len(data))
        if not data:
            return 0
        # data[head:tail] is whole blocks
        head = min(-offset % BLOCK_SIZE, len(data))
        tail = head + (len(data) - head) // BLOCK_SIZE * BLOCK_SIZE
        if head:
            self._write_block(offset // BLOCK_SIZE, offset % BLOCK_SIZE, data[:head])
        if tail > head:
            first = (offset + head) // BLOCK_SIZE
            self.tree.update_range(first, bytes(data[head:tail]), self._cipher.encrypt)
            self.stats.blocks_written += (tail - head) // BLOCK_SIZE
        if tail < len(data):
            self._write_block((offset + tail) // BLOCK_SIZE, 0, data[tail:])
        self.stats.bytes_written += len(data)
        blocks, nodes = self._touched_geometry(offset, len(data))
        # Per block: read the old version (8 B), write version + MAC (16 B).
        leaf_bytes = blocks * (8 + self.LEAF_ENTRY_BYTES)
        # Per interior node: read-modify-write of its counter + MAC.
        node_bytes = nodes * 2 * self.NODE_ENTRY_BYTES
        bus_bytes = len(data) + leaf_bytes + node_bytes
        streaming = bus_bytes / self._bandwidth(write=True) * 1e12
        return self.BULK_FILL_LATENCY_PS + round(streaming)

    def bulk_read(self, offset: int, length: int) -> Tuple[bytes, int]:
        """Read a large contiguous range the way the restore FSM does.

        Functional result identical to :meth:`read` (full verification),
        with the ciphertext and metadata read as ranges and each tree node
        checked once.  Blocks that one pending bulk write still holds come
        back as its plaintext, with the same charges, cache traffic,
        stats and root check (:meth:`IntegrityTree.verify_pending`).
        Latency is modeled as a pipelined stream: ciphertext plus one pass
        over the touched metadata (leaf entries and interior nodes are
        contiguous arrays, so they stream at full bandwidth).  This is the
        model behind the paper's ~13 us restore (Sec. 6.3).  An empty read
        touches nothing and takes 0.
        """
        self._check_ready()
        self._check_bounds(offset, length)
        if not length:
            return b"", 0
        first = offset // BLOCK_SIZE
        address = self.geometry.block_address(first)
        span = ((offset + length - 1) // BLOCK_SIZE - first + 1) * BLOCK_SIZE
        held = self.tree.pending_plaintext(first, span // BLOCK_SIZE)
        if held is not None:
            self.device.charge_read(address, span)
            versions, failure = self.tree.verify_pending(first, span // BLOCK_SIZE)
            self.stats.blocks_read += len(versions)
            if failure is not None:
                self.stats.integrity_violations += 1
                raise failure
            data = held
        else:
            ciphertext, _latency = self.device.read(address, span)
            decrypt = self._cipher.decrypt
            plaintext = []
            try:
                for position, version in enumerate(self.tree.verify_range(first, ciphertext)):
                    start = position * BLOCK_SIZE
                    plaintext.append(
                        decrypt(address + start, version, ciphertext[start : start + BLOCK_SIZE])
                    )
            except SecurityError:
                self.stats.integrity_violations += 1
                raise
            finally:
                # every block verified was decrypted
                self.stats.blocks_read += len(plaintext)
            data = b"".join(plaintext)
        self.stats.bytes_read += length
        start = offset % BLOCK_SIZE
        data = data[start : start + length]
        blocks, nodes = self._touched_geometry(offset, length)
        leaf_bytes = blocks * self.LEAF_ENTRY_BYTES
        node_bytes = nodes * self.NODE_ENTRY_BYTES
        bus_bytes = length + leaf_bytes + node_bytes
        streaming = bus_bytes / self._bandwidth(write=False) * 1e12
        return data, self.BULK_FILL_LATENCY_PS + round(streaming)
