"""Counter-based integrity tree over the protected region.

An 8-ary tree in the style of SGX's MEE (Gueron [28]):

* every 64-byte data block has a 64-bit **version counter** and a MAC that
  binds ``(block address, version, ciphertext)``;
* level-1 nodes hold a counter and a MAC over their 8 children's version
  counters; higher levels repeat the construction over the counters below;
* the single top-level counter is mirrored **on-chip** — that mirror is
  the root of trust that defeats replay of a wholesale DRAM snapshot.

All metadata except the on-chip root really lives in the DRAM model, so a
test can flip any DRAM byte and watch verification fail.  Every metadata
access is charged to the backing device (latency + energy), which is what
makes the MEE-cache ablation measurable.

Per-block walks (:meth:`IntegrityTree.verify_block`,
:meth:`IntegrityTree.update_block`) serve per-access reads and writes,
taking each node's spans and MAC label from a walk record built once.
Bulk transfers use the range paths (:meth:`IntegrityTree.verify_range`,
:meth:`IntegrityTree.update_range`), which read and write metadata as
ranges and commit or check each node once per transfer, leaving exactly
the state the per-block walks would.  A range write seals its bytes
only when something could observe them (:meth:`IntegrityTree.materialize`);
until then a bulk read of it is served from the held plaintext
(:meth:`IntegrityTree.verify_pending`).  Region set-up stores a
version-0 image (:func:`seal_initial_image`) computed without the
device (:meth:`IntegrityTree.initialize`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

from repro.errors import MemoryFault, SecurityError
from repro.sgx.cache import MEECache
from repro.sgx.crypto import COUNTER, COUNTER_WRAP, MacKey, pack_counter, unpack_counter

BLOCK_SIZE = 64
ARITY = 8
COUNTER_BYTES = 8
MAC_BYTES = 8
_RECORD = struct.Struct(f">Q{MAC_BYTES}s")  # one node: counter + MAC
_RECORD_BYTES = _RECORD.size


class _Node(NamedTuple):
    """Walk record of one tree node: its layout, computed once.

    ``walk`` is the reads a verify walk makes of the node on a cache
    miss: its counter, its children's counters, its MAC.  A hit reads
    ``hit`` (``walk[1:]``); an update reads ``counter`` (``walk[:1]``),
    then ``children`` (``walk[1:-1]``).
    """

    address: int  # the counter; the MAC follows it
    walk: Tuple[Tuple[int, int], ...]  # (address, length) per charged read
    hit: Tuple[Tuple[int, int], ...]  # the spans of walk after the counter's
    counter: Tuple[Tuple[int, int], ...]  # the counter's span alone
    children: Tuple[Tuple[int, int], ...]  # the children's spans
    label: bytes  # b"node:{level}:{index}", the first input of the node's MAC
    pad: bytes  # zero counters that fill a short last node's children to ARITY


def _label(level: int, index: int) -> bytes:
    """The first input of node ``index``'s MAC at ``level``."""
    return b"node:%d:%d" % (level, index)


def _covered(level: int, raw: bytes, nodes: int) -> List[bytes]:
    """Per node of a run of ``nodes`` at ``level``, the child counters its MAC covers.

    ``raw`` is the bytes of their children: leaf versions at level 1,
    else the level below's records, whose counters are taken.  Zero
    counters pad the last node of a level, as a walk record's pad does.
    """
    if level > 1:
        raw = b"".join(
            raw[start : start + COUNTER_BYTES] for start in range(0, len(raw), _RECORD_BYTES)
        )
    width = ARITY * COUNTER_BYTES
    raw = raw.ljust(nodes * width, b"\0")
    return [raw[start : start + width] for start in range(0, len(raw), width)]


def _node_records(
    mac_key: MacKey, level: int, lo: int, counters: List[int], covered: List[bytes]
) -> bytes:
    """Counter + MAC of nodes ``lo..`` at ``level``, each MAC over its ``covered`` children."""
    records = []
    tag = mac_key.tag
    for index, counter, children in zip(range(lo, lo + len(counters)), counters, covered):
        records.append(pack_counter(counter))
        records.append(tag(_label(level, index), pack_counter(counter), children))
    return b"".join(records)


def _leaf_writes(
    geometry: TreeGeometry, mac_key: MacKey, first: int, versions: List[int], ciphertext: bytes
) -> Iterator[Tuple[int, bytes]]:
    """The two range writes (versions, then data MACs) of consecutive blocks."""
    base = geometry.block_range_address(first, len(versions))
    tag = mac_key.tag
    macs = [
        tag(
            b"data",
            pack_counter(base + start),
            pack_counter(version),
            ciphertext[start : start + BLOCK_SIZE],
        )
        for start, version in zip(range(0, len(ciphertext), BLOCK_SIZE), versions)
    ]
    yield geometry.version_address(first), b"".join(map(pack_counter, versions))
    yield geometry.leaf_mac_address(first), b"".join(macs)


@dataclass(frozen=True)
class TreeGeometry:
    """Address layout of data + metadata inside the protected region.

    Layout (all offsets relative to the region base)::

        [ data blocks | leaf versions | leaf MACs | per-level counters+MACs ]
    """

    region_base: int
    data_blocks: int
    level_counts: Tuple[int, ...]

    @classmethod
    def for_data_size(cls, region_base: int, data_size: int) -> "TreeGeometry":
        """Compute geometry for ``data_size`` bytes of protected data."""
        if data_size <= 0:
            raise SecurityError("protected data size must be positive")
        blocks = -(-data_size // BLOCK_SIZE)
        counts: List[int] = []
        nodes = -(-blocks // ARITY)
        while True:
            counts.append(nodes)
            if nodes == 1:
                break
            nodes = -(-nodes // ARITY)
        return cls(region_base=region_base, data_blocks=blocks, level_counts=tuple(counts))

    @property
    def levels(self) -> int:
        return len(self.level_counts)

    # --- offsets -------------------------------------------------------------

    @property
    def data_offset(self) -> int:
        return self.region_base

    @property
    def versions_offset(self) -> int:
        return self.region_base + self.data_blocks * BLOCK_SIZE

    @property
    def leaf_macs_offset(self) -> int:
        return self.versions_offset + self.data_blocks * COUNTER_BYTES

    @cached_property
    def _level_offsets(self) -> Tuple[int, ...]:
        offsets = []
        offset = self.leaf_macs_offset + self.data_blocks * MAC_BYTES
        for count in self.level_counts:
            offsets.append(offset)
            offset += count * _RECORD_BYTES
        return tuple(offsets)

    def level_offset(self, level: int) -> int:
        """Offset of level ``level`` (1-based) counter+MAC records."""
        if not 1 <= level <= self.levels:
            raise SecurityError(f"level {level} out of range 1..{self.levels}")
        return self._level_offsets[level - 1]

    @property
    def total_size(self) -> int:
        """Bytes of region consumed by data plus all metadata."""
        metadata = self.data_blocks * (COUNTER_BYTES + MAC_BYTES)
        metadata += sum(count * (COUNTER_BYTES + MAC_BYTES) for count in self.level_counts)
        return self.data_blocks * BLOCK_SIZE + metadata

    def block_address(self, block: int) -> int:
        self._check_block(block)
        return self.data_offset + block * BLOCK_SIZE

    def block_range_address(self, first: int, count: int) -> int:
        """Address of block ``first`` once blocks ``first..first + count - 1`` are checked.

        The range paths make this one check per transfer and derive each
        block's address from it by arithmetic.
        """
        if count < 1:
            raise SecurityError(f"empty block range at block {first}")
        self._check_block(first)
        self._check_block(first + count - 1)
        return self.data_offset + first * BLOCK_SIZE

    def version_address(self, block: int) -> int:
        self._check_block(block)
        return self.versions_offset + block * COUNTER_BYTES

    def leaf_mac_address(self, block: int) -> int:
        self._check_block(block)
        return self.leaf_macs_offset + block * MAC_BYTES

    def node_address(self, level: int, index: int) -> int:
        offset = self.level_offset(level)  # checks the level before indexing by it
        if not 0 <= index < self.level_counts[level - 1]:
            raise SecurityError(f"node index {index} out of range at level {level}")
        return offset + index * _RECORD_BYTES

    def _check_block(self, block: int) -> None:
        if not 0 <= block < self.data_blocks:
            raise SecurityError(f"block {block} out of range 0..{self.data_blocks - 1}")


class IntegrityTree:
    """Tree walks (verify) and updates (write) with access accounting.

    ``device`` must expose ``read(addr, n) -> (bytes, latency_ps)``,
    ``read_spans([(addr, n), ...]) -> ([bytes, ...], latency_ps)`` and
    ``write(addr, data) -> latency_ps`` (both DRAM and NVM devices do).
    The per-block walks hand each run of consecutive reads to one
    ``read_spans`` call; the device charges every span as its own read,
    so the modeled accesses are those of one ``read`` per span.

    Each node's layout (address, the spans a walk reads, the MAC label)
    is a walk record (:class:`_Node`), built for every node at region
    set-up (or by the first path that needs a missing one) and kept for
    the tree's life, so a walk does no address arithmetic or range
    check per level.
    """

    def __init__(
        self,
        geometry: TreeGeometry,
        device,
        mac_key: MacKey,
        cache: Optional[MEECache] = None,
    ) -> None:
        self.geometry = geometry
        self.device = device
        self.mac_key = mac_key
        self.cache = cache
        self.root_counter = 0  # the on-chip trusted mirror
        self.metadata_accesses = 0
        self.metadata_latency_ps = 0
        #: Counters of pending (deferred) range writes, per level (0: leaf
        #: versions), index -> counter; the bulk paths read these, not DRAM.
        self.pending: List[Dict[int, int]] = [{} for _ in range(geometry.levels + 1)]
        #: Pending range writes: (first block, last block, plaintext), disjoint.
        self._ranges: List[Tuple[int, int, bytes]] = []
        self._encrypt: Optional[Callable[[int, int, bytes], bytes]] = None
        #: Walk records per level (1 first), index -> record, see _node().
        self._nodes: List[Dict[int, _Node]] = [{} for _ in range(geometry.levels)]
        self._data_offset = geometry.data_offset
        self._versions_offset = geometry.versions_offset
        self._leaf_macs_offset = geometry.leaf_macs_offset

    # --- raw metadata IO -------------------------------------------------------

    def _read(self, address: int, length: int) -> bytes:
        data, latency = self.device.read(address, length)
        self.metadata_accesses += 1
        self.metadata_latency_ps += latency
        return data

    def _write(self, address: int, data: bytes) -> None:
        latency = self.device.write(address, data)
        self.metadata_accesses += 1
        self.metadata_latency_ps += latency

    # --- walk records ----------------------------------------------------------------

    def _node(self, level: int, index: int) -> _Node:
        """The walk record of node ``index`` at ``level``, built on first use."""
        if 1 <= level <= len(self._nodes):
            node = self._nodes[level - 1].get(index)
            if node is not None:
                return node
        self.geometry.node_address(level, index)  # checks level and index
        self._build_nodes(level, range(index, index + 1))
        return self._nodes[level - 1][index]

    def _build_nodes(self, level: int, indices: range) -> None:
        """Build the walk records of ``indices`` at ``level``, all in range."""
        geometry = self.geometry
        nodes = self._nodes[level - 1]
        offset = geometry.level_offset(level)
        if level == 1:  # children: the leaf versions
            below, below_offset = geometry.data_blocks, geometry.versions_offset
            stride = COUNTER_BYTES
        else:  # children: the records of the level below
            below, below_offset = geometry.level_counts[level - 2], geometry.level_offset(level - 1)
            stride = _RECORD_BYTES
        for index in indices:
            address = offset + index * _RECORD_BYTES
            first = index * ARITY
            count = min(first + ARITY, below) - first
            start = below_offset + first * stride
            if level == 1:
                children: Tuple[Tuple[int, int], ...] = ((start, count * COUNTER_BYTES),)
            else:
                children = tuple(
                    (start + child * _RECORD_BYTES, COUNTER_BYTES) for child in range(count)
                )
            counter = ((address, COUNTER_BYTES),)
            hit = (*children, (address + COUNTER_BYTES, MAC_BYTES))
            nodes[index] = _Node(
                address,
                counter + hit,
                hit,
                counter,
                children,
                _label(level, index),
                bytes((ARITY - count) * COUNTER_BYTES),
            )

    # --- counters -----------------------------------------------------------------

    def read_version(self, block: int) -> int:
        """Leaf version counter of ``block`` (cache-aware, unverified)."""
        if self.cache is not None:
            cached = self.cache.lookup((0, block))
            if cached is not None:
                return cached
        return unpack_counter(self._read(self.geometry.version_address(block), COUNTER_BYTES))

    # --- verification walk ------------------------------------------------------------

    def verify_block(self, block: int, ciphertext: bytes) -> int:
        """Verify ``ciphertext`` of ``block``; return its trusted version.

        Walks the tree from the leaf upward, stopping early at a cache hit
        (cached counters are trusted).  Raises
        :class:`~repro.errors.SecurityError` on any mismatch.
        """
        cache = self.cache
        version = cache.lookup((0, block)) if cache is not None else None
        self.geometry._check_block(block)
        mac_span = (self._leaf_macs_offset + block * MAC_BYTES, MAC_BYTES)
        if version is not None:
            (stored_mac,), latency = self.device.read_spans((mac_span,))
            self.metadata_accesses += 1
        else:
            (raw_version, stored_mac), latency = self.device.read_spans(
                ((self._versions_offset + block * COUNTER_BYTES, COUNTER_BYTES), mac_span)
            )
            self.metadata_accesses += 2
        self.metadata_latency_ps += latency
        trusted = version is not None
        if not trusted:
            version = COUNTER.unpack(raw_version)[0]
        if not self.mac_key.verify(
            stored_mac,
            b"data",
            COUNTER.pack((self._data_offset + block * BLOCK_SIZE) & COUNTER_WRAP),
            COUNTER.pack(version & COUNTER_WRAP),
            ciphertext,
        ):
            raise SecurityError(f"data MAC mismatch on block {block}")
        if trusted:
            return version  # the version itself was trusted; done
        self._verify_counters_upward(block, version)
        if cache is not None:
            cache.insert((0, block), version)
        return version

    def _verify_counters_upward(self, block: int, leaf_version: int) -> None:
        cache = self.cache
        read_spans = self.device.read_spans
        verify = self.mac_key.verify
        pack, unpack = COUNTER.pack, COUNTER.unpack
        top = len(self._nodes)
        index = block
        accesses = latency_ps = 0
        try:
            for level, nodes in enumerate(self._nodes, start=1):
                index //= ARITY
                node = nodes.get(index) or self._node(level, index)
                cached = cache.lookup((level, index)) if cache is not None else None
                # one device call per level: [counter on a miss,] children, MAC
                if cached is None:
                    chunks, spent = read_spans(node.walk)
                    counter = unpack(chunks[0])[0]
                    children = b"".join(chunks[1:-1]) + node.pad
                else:
                    chunks, spent = read_spans(node.hit)
                    counter = cached
                    children = b"".join(chunks[:-1]) + node.pad
                accesses += len(chunks)
                latency_ps += spent
                if not verify(chunks[-1], node.label, pack(counter & COUNTER_WRAP), children):
                    raise SecurityError(f"tree MAC mismatch at level {level} node {index}")
                if level == 1:
                    # confirm the leaf version we used is the one under this MAC
                    covered = COUNTER.unpack_from(children, (block % ARITY) * COUNTER_BYTES)
                    if covered[0] != leaf_version:
                        raise SecurityError(f"leaf version replay on block {block}")
                if cached is not None:
                    return  # cached counters are inside the security perimeter
                if cache is not None:
                    cache.insert((level, index), counter)
                if level == top:
                    if counter != self.root_counter:
                        raise SecurityError(
                            f"root counter mismatch: DRAM={counter} on-chip={self.root_counter}"
                        )
                    return
        finally:
            # a walk stopped by a mismatch or a device fault keeps what it read
            self.metadata_accesses += accesses
            self.metadata_latency_ps += latency_ps

    # --- update walk -----------------------------------------------------------------------

    def update_block(self, block: int, new_version: int, ciphertext: bytes) -> None:
        """Install a new version + MAC for ``block`` and bump the tree.

        The caller has already written the ciphertext to the data area;
        this routine writes the leaf metadata and re-MACs every node on
        the path to the root, bumping each counter (and the on-chip root).
        """
        self.geometry._check_block(block)
        cache = self.cache
        read_spans, write = self.device.read_spans, self.device.write
        tag = self.mac_key.tag
        pack, unpack = COUNTER.pack, COUNTER.unpack
        version = pack(new_version & COUNTER_WRAP)
        accesses = latency_ps = 0
        try:
            latency_ps += write(self._versions_offset + block * COUNTER_BYTES, version)
            accesses += 1
            address = pack((self._data_offset + block * BLOCK_SIZE) & COUNTER_WRAP)
            leaf_mac = tag(b"data", address, version, ciphertext)
            latency_ps += write(self._leaf_macs_offset + block * MAC_BYTES, leaf_mac)
            accesses += 1
            if cache is not None:
                cache.insert((0, block), new_version)

            index = block
            for level, nodes in enumerate(self._nodes, start=1):
                index //= ARITY
                node = nodes.get(index) or self._node(level, index)
                (raw,), latency = read_spans(node.counter)
                accesses += 1
                latency_ps += latency
                counter = unpack(raw)[0] + 1
                stored = pack(counter & COUNTER_WRAP)
                latency_ps += write(node.address, stored)
                accesses += 1
                chunks, latency = read_spans(node.children)
                accesses += len(chunks)
                latency_ps += latency
                mac = tag(node.label, stored, b"".join(chunks) + node.pad)
                latency_ps += write(node.address + COUNTER_BYTES, mac)
                accesses += 1
                if cache is not None:
                    cache.insert((level, index), counter)
        finally:
            # a device fault part-way keeps the accesses made before it
            self.metadata_accesses += accesses
            self.metadata_latency_ps += latency_ps
        self.root_counter += 1

    # --- batched range paths (bulk FSM transfers) ----------------------------------------

    def node_spans(self, first: int, last: int) -> List[Tuple[int, int]]:
        """``(lo, hi)`` node indices covering blocks ``first..last``, per level 1..top."""
        spans = []
        for _level in range(self.geometry.levels):
            first //= ARITY
            last //= ARITY
            spans.append((first, last))
        return spans

    def _read_counters(self, first: int, count: int) -> List[int]:
        """Stored leaf versions of ``count`` blocks from ``first``, one range read."""
        raw = self._read(self.geometry.version_address(first), count * COUNTER_BYTES)
        return list(struct.unpack(f">{count}Q", raw))

    def _read_records(self, level: int, lo: int, hi: int) -> List[Tuple[int, bytes]]:
        """``(counter, MAC)`` of nodes ``lo..hi`` at ``level``, one range read."""
        raw = self._read(self.geometry.node_address(level, lo), (hi - lo + 1) * _RECORD_BYTES)
        return list(_RECORD.iter_unpack(raw))

    def _children_extent(self, level: int, lo: int, hi: int) -> Tuple[int, int]:
        """``(address, length)`` holding the child counters of nodes ``lo..hi`` at ``level``."""
        first = lo * ARITY
        if level == 1:
            last = min((hi + 1) * ARITY, self.geometry.data_blocks)
            return self.geometry.version_address(first), (last - first) * COUNTER_BYTES
        last = min((hi + 1) * ARITY, self.geometry.level_counts[level - 2])
        return self.geometry.node_address(level - 1, first), (last - first) * _RECORD_BYTES

    def _children_span(
        self, level: int, lo: int, hi: int, read: Optional[Callable[[int, int], bytes]] = None
    ) -> List[bytes]:
        """Child counters of every node ``lo..hi`` at ``level``, one range read.

        ``read`` defaults to the charged :meth:`_read`.
        """
        raw = (read or self._read)(*self._children_extent(level, lo, hi))
        return _covered(level, raw, hi - lo + 1)

    def _node_write(
        self, level: int, lo: int, counters: List[int], read: Callable[[int, int], bytes]
    ) -> Tuple[int, bytes]:
        """The range write of counter + MAC of nodes ``lo..`` at ``level``.

        Each MAC covers the children ``read`` returns now, so a caller
        goes bottom-up and stores each level before the next one's.
        """
        children = self._children_span(level, lo, lo + len(counters) - 1, read)
        records = _node_records(self.mac_key, level, lo, counters, children)
        return self.geometry.node_address(level, lo), records

    # --- deferred sealing -----------------------------------------------------------------------
    #
    # A bulk write (update_range) does at once everything that is cheap or
    # observable without the DRAM bytes: counters, root, cache traffic and
    # the device charge of every access the eager walk makes.  Its
    # ciphertext, MACs and node records are sealed later, by materialize(),
    # from the final counters.  The store's deferral slot calls
    # materialize() before any access can see the stale bytes, and every
    # child counter a pending node's MAC covers lies in a deferred span, so
    # the bytes sealed late equal the bytes sealed at once.

    def _charge(self, address: int, length: int, write: bool = False) -> None:
        """Charge one metadata access to the device without moving its bytes."""
        if write:
            latency = self.device.charge_write(address, length)
        else:
            latency = self.device.charge_read(address, length)
        self.metadata_accesses += 1
        self.metadata_latency_ps += latency

    def _current(self, level: int, lo: int, hi: int) -> List[int]:
        """Counters ``lo..hi`` at ``level`` (0: leaf versions) as sealing will store them.

        A pending counter comes from the mirror, any other from DRAM
        (uncharged; the caller charges the eager read).
        """
        pending = self.pending[level]
        if pending:
            values = [pending.get(index) for index in range(lo, hi + 1)]
            if None not in values:
                return values
        peek = self.device._store.peek
        count = hi - lo + 1
        if level == 0:
            raw = peek(self.geometry.version_address(lo), count * COUNTER_BYTES)
            stored = list(struct.unpack(f">{count}Q", raw))
        else:
            raw = peek(self.geometry.node_address(level, lo), count * _RECORD_BYTES)
            stored = [counter for counter, _mac in _RECORD.iter_unpack(raw)]
        if not pending:
            return stored
        return [old if new is None else new for new, old in zip(values, stored)]

    def update_range(
        self, first: int, plaintext: bytes, encrypt: Callable[[int, int, bytes], bytes]
    ) -> None:
        """Batched :meth:`update_block` over the whole blocks of ``plaintext``, sealed later.

        Leaves what per-block :meth:`read_version` + :meth:`update_block`
        calls leave: a node's counter goes up by the number of blocks
        under it, the root by the number of blocks, and the cache is left
        in the same final state with the same counts, nodes holding
        their final counters (:meth:`MEECache.replay_writes`, one call
        for the range).  The device is charged, in order, every access the
        eager batch makes: each level's node records and the versions
        read, the versions and leaf MACs written, each level's children
        read and records written, then the ciphertext written.

        The plaintext is held until :meth:`materialize` seals it with
        ``encrypt(address, version, block)`` and stores ciphertext,
        versions, MACs and node records.  If a write charge faults
        part-way (PCM endurance), the writes before it and the failing
        one are stored at once, as the eager device stores a write
        before counting it, and the fault propagates.
        """
        geometry = self.geometry
        count = len(plaintext) // BLOCK_SIZE
        base = geometry.block_range_address(first, count)
        last = first + count - 1
        for start, end, _held in self._ranges:
            if start <= last and first <= end and not first <= start <= end <= last:
                self.materialize()  # partly overwritten: keep pending ranges disjoint
                break
        spans = self.node_spans(first, last)
        counters = []
        width = 1
        for level, (lo, hi) in enumerate(spans, start=1):
            width *= ARITY
            self._charge(geometry.node_address(level, lo), (hi - lo + 1) * _RECORD_BYTES)
            counters.append([
                counter + min(last, (index + 1) * width - 1) - max(first, index * width) + 1
                for index, counter in enumerate(self._current(level, lo, hi), lo)
            ])
        self._charge(geometry.version_address(first), count * COUNTER_BYTES)
        stored = self._current(0, first, last)
        if self.cache is None:
            versions = [version + 1 for version in stored]
        else:
            nodes = [
                dict(zip(range(lo, hi + 1), level_counters))
                for (lo, hi), level_counters in zip(spans, counters)
            ]
            versions = self.cache.replay_writes(first, stored, nodes, ARITY)
        written = 0
        try:
            self._charge(geometry.version_address(first), count * COUNTER_BYTES, write=True)
            written += 1
            self._charge(geometry.leaf_mac_address(first), count * MAC_BYTES, write=True)
            written += 1
            for level, (lo, hi) in enumerate(spans, start=1):
                self._charge(*self._children_extent(level, lo, hi))
                self._charge(
                    geometry.node_address(level, lo), (hi - lo + 1) * _RECORD_BYTES, write=True
                )
                written += 1
            self.root_counter += count
            self.device.charge_write(base, len(plaintext))
        except MemoryFault:
            self.materialize()
            self._hold(first, plaintext, versions, spans, counters, encrypt)
            self._seal(writes=written + 1)
            raise
        self._hold(first, plaintext, versions, spans, counters, encrypt)
        spans_held = []
        for start, end, _held in self._ranges:
            spans_held.extend(self._deferred_spans(start, end))
        self.device._store.defer(self, spans_held)

    def _hold(
        self,
        first: int,
        plaintext: bytes,
        versions: List[int],
        spans: List[Tuple[int, int]],
        counters: List[List[int]],
        encrypt: Callable[[int, int, bytes], bytes],
    ) -> None:
        """Make one range write pending: its plaintext and its counters in the mirror."""
        last = first + len(versions) - 1
        self._ranges = [held for held in self._ranges if not first <= held[0] <= held[1] <= last]
        self._ranges.append((first, last, plaintext))
        self._encrypt = encrypt
        self.pending[0].update(zip(range(first, last + 1), versions))
        for level, ((lo, hi), level_counters) in enumerate(zip(spans, counters), start=1):
            self.pending[level].update(zip(range(lo, hi + 1), level_counters))

    def _deferred_spans(self, first: int, last: int) -> List[Tuple[int, int]]:
        """Every byte sealing blocks ``first..last`` stores or reads.

        The ciphertext and leaf MACs, each level's children (the versions
        and node records the MACs cover, the range's own among them) and
        the top node.
        """
        geometry = self.geometry
        count = last - first + 1
        spans = [
            (geometry.block_address(first), count * BLOCK_SIZE),
            (geometry.leaf_mac_address(first), count * MAC_BYTES),
        ]
        for level, (lo, hi) in enumerate(self.node_spans(first, last), start=1):
            spans.append(self._children_extent(level, lo, hi))
        spans.append((geometry.node_address(geometry.levels, 0), _RECORD_BYTES))
        return spans

    def pending_plaintext(self, first: int, count: int) -> Optional[bytes]:
        """The held plaintext of blocks ``first..first + count - 1`` if one pending write holds them all."""
        for start, end, held in self._ranges:
            if start <= first and first + count - 1 <= end:
                offset = (first - start) * BLOCK_SIZE
                return held[offset : offset + count * BLOCK_SIZE]
        return None

    def materialize(self) -> None:
        """Store every pending write's bytes as eager sealing would have (store hook)."""
        if self._ranges:
            self._seal()

    def _seal(self, writes: Optional[int] = None) -> None:
        """Store the pending writes (the first ``writes`` only) and clear them."""
        store = self.device._store
        store.release()
        for done, (address, data) in enumerate(self._sealed_writes(store.read), start=1):
            store.write(address, data)
            if done == writes:
                break
        self._ranges = []
        for level in self.pending:
            level.clear()

    def _sealed_writes(self, read: Callable[[int, int], bytes]) -> Iterator[Tuple[int, bytes]]:
        """``(address, bytes)`` storing the pending writes, in the eager batch's order.

        Each range's versions and leaf MACs, then every pending node level
        by level bottom-up, each node's MAC over its children as ``read``
        returns them once the level below is stored, then each range's
        ciphertext.  For one range that is the eager write order.
        """
        encrypt = self._encrypt
        sealed = []
        for first, last, plaintext in self._ranges:
            base = self.geometry.block_range_address(first, last - first + 1)
            versions = [self.pending[0][block] for block in range(first, last + 1)]
            ciphertext = b"".join(
                encrypt(base + start, version, plaintext[start : start + BLOCK_SIZE])
                for start, version in zip(range(0, len(plaintext), BLOCK_SIZE), versions)
            )
            sealed.append((base, ciphertext))
            yield from _leaf_writes(self.geometry, self.mac_key, first, versions, ciphertext)
        for level in range(1, self.geometry.levels + 1):
            counters = self.pending[level]
            run: List[int] = []
            for index in sorted(counters):
                if run and index != lo + len(run):
                    yield self._node_write(level, lo, run, read)
                    run = []
                if not run:
                    lo = index
                run.append(counters[index])
            if run:
                yield self._node_write(level, lo, run, read)
        yield from sealed

    def verify_range(self, first: int, ciphertext: bytes) -> Iterator[int]:
        """Batched :meth:`verify_block`: yield each block's trusted version in turn.

        Makes the same cache lookups and inserts in the same order, and
        raises the same :class:`~repro.errors.SecurityError` at the same
        block, as per-block calls.  DRAM metadata is read as ranges, and
        a node's DRAM-side check (its stored MAC over a counter and its
        children) is done at most once per counter value: DRAM does not
        change during a read.  A cache hit is trusted only for the lookup
        that returned it.
        """
        geometry = self.geometry
        count = len(ciphertext) // BLOCK_SIZE
        base = geometry.block_range_address(first, count)
        last = first + count - 1
        stored = self._read_counters(first, count)
        leaf_macs = self._read(geometry.leaf_mac_address(first), count * MAC_BYTES)
        nodes = [
            (lo, self._read_records(level, lo, hi), self._children_span(level, lo, hi))
            for level, (lo, hi) in enumerate(self.node_spans(first, last), start=1)
        ]
        cache = self.cache
        checked: Set[Tuple[int, int, int]] = set()
        for position, block in enumerate(range(first, last + 1)):
            cached = cache.lookup((0, block)) if cache is not None else None
            version = cached if cached is not None else stored[position]
            start = position * BLOCK_SIZE
            if not self.mac_key.verify(
                leaf_macs[position * MAC_BYTES : (position + 1) * MAC_BYTES],
                b"data",
                pack_counter(base + start),
                pack_counter(version),
                ciphertext[start : start + BLOCK_SIZE],
            ):
                raise SecurityError(f"data MAC mismatch on block {block}")
            if cached is None:
                self._verify_path(block, version, nodes, checked)
                if cache is not None:
                    cache.insert((0, block), version)
            yield version

    def _verify_path(self, block: int, leaf_version: int, nodes, checked) -> None:
        """:meth:`_verify_counters_upward` over pre-read nodes, memoising passed checks."""
        child_index = block
        for level, (lo, records, children) in enumerate(nodes, start=1):
            index = child_index // ARITY
            stored_counter, stored_mac = records[index - lo]
            covered = children[index - lo]
            cached = self.cache.lookup((level, index)) if self.cache is not None else None
            counter = cached if cached is not None else stored_counter
            if (level, index, counter) not in checked:
                label = self._node(level, index).label
                if not self.mac_key.verify(stored_mac, label, pack_counter(counter), covered):
                    raise SecurityError(f"tree MAC mismatch at level {level} node {index}")
                checked.add((level, index, counter))
            if level == 1:
                offset = (block % ARITY) * COUNTER_BYTES
                if unpack_counter(covered[offset : offset + COUNTER_BYTES]) != leaf_version:
                    raise SecurityError(f"leaf version replay on block {block}")
            if cached is not None:
                return
            if self.cache is not None:
                self.cache.insert((level, index), counter)
            if level == len(nodes):
                if counter != self.root_counter:
                    raise SecurityError(
                        f"root counter mismatch: DRAM={counter} on-chip={self.root_counter}"
                    )
                return
            child_index = index

    def verify_pending(
        self, first: int, count: int
    ) -> Tuple[List[int], Optional[SecurityError]]:
        """:meth:`verify_range` over blocks that one pending write holds.

        Charges the same metadata reads, leaves the same final cache
        state and counts (:meth:`MEECache.replay_walks`, one call for the
        range) and makes the same root check.  Returns the versions
        :meth:`verify_range` would yield, up to the same failing block,
        and the error it would raise there (None when every block
        passes); the caller raises it.  Every MAC check passes: the
        bytes are the engine's own sealing of the mirror's counters, and
        nothing can have changed them, since any access to them stores
        them first.
        """
        geometry = self.geometry
        last = first + count - 1
        self._charge(geometry.version_address(first), count * COUNTER_BYTES)
        self._charge(geometry.leaf_mac_address(first), count * MAC_BYTES)
        for level, (lo, hi) in enumerate(self.node_spans(first, last), start=1):
            self._charge(geometry.node_address(level, lo), (hi - lo + 1) * _RECORD_BYTES)
            self._charge(*self._children_extent(level, lo, hi))
        pending = self.pending
        top = geometry.levels
        counter = pending[top][0]
        # the walk that reaches the top node fails there when it is not the root
        stop = (top, 0) if counter != self.root_counter else None
        if self.cache is None:
            versions = [] if stop else [pending[0][block] for block in range(first, last + 1)]
        else:
            versions = self.cache.replay_walks(first, count, pending[0], pending[1:], ARITY, stop)
        if len(versions) < count:
            return versions, SecurityError(
                f"root counter mismatch: DRAM={counter} on-chip={self.root_counter}"
            )
        return versions, None

    # --- initialization ------------------------------------------------------------------------

    def initialize(self, image: RegionImage) -> None:
        """Store ``image``'s version-0 metadata (region set-up).

        Settles any pending write, then makes the eager set-up's device
        calls in its order: the versions write, the leaf MACs write, and
        per level bottom-up the charged read of the children its MACs
        cover and the write of its records.  Every node's walk record is
        built, the root goes to 0 and the cache is flushed.  ``image``
        (:func:`seal_initial_image`) holds every byte, so no MAC is
        computed here; the caller has stored its ciphertext.
        """
        geometry = self.geometry
        self.materialize()  # settle pending writes before overwriting them
        self._write(geometry.versions_offset, image.versions)
        self._write(geometry.leaf_macs_offset, image.macs)
        for level, (count, records) in enumerate(zip(geometry.level_counts, image.records), 1):
            self._read(*self._children_extent(level, 0, count - 1))
            self._write(geometry.level_offset(level), records)
            if len(self._nodes[level - 1]) < count:
                self._build_nodes(level, range(count))  # the level's walk records, side by side
        self.root_counter = 0
        if self.cache is not None:
            self.cache.flush()


class RegionImage(NamedTuple):
    """A protected region's version-0 bytes: everything its set-up stores.

    Every leaf version and node counter is 0, and every MAC is valid, so
    the first verified read of an untouched block succeeds.
    """

    ciphertext: bytes  # every data block, at the geometry's data offset
    versions: bytes  # the leaf versions
    macs: bytes  # the data MACs
    records: Tuple[bytes, ...]  # per level, 1 first: every node's counter + MAC


def seal_initial_image(geometry: TreeGeometry, mac_key: MacKey, ciphertext: bytes) -> RegionImage:
    """The version-0 image of a region whose blocks hold ``ciphertext``, concatenated.

    A pure function of its arguments: each node's MAC covers the
    children computed just before it, not bytes read from a device, and
    the records equal what the eager set-up's MACs over the stored
    children would be.
    """
    blocks = geometry.data_blocks
    versions, macs = (data for _address, data in _leaf_writes(
        geometry, mac_key, 0, [0] * blocks, ciphertext
    ))
    records = []
    below = versions
    for level, nodes in enumerate(geometry.level_counts, start=1):
        below = _node_records(mac_key, level, 0, [0] * nodes, _covered(level, below, nodes))
        records.append(below)
    return RegionImage(ciphertext, versions, macs, tuple(records))
