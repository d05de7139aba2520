"""The reference MEE: the simplest eager model of the integrity tree.

:class:`ReferenceTree` is a test oracle, not a product path.  It runs on
the real :class:`~repro.sgx.integrity_tree.TreeGeometry`,
:class:`~repro.sgx.crypto.MacKey` and devices, and it works per block and
per access: every walk rebuilds each level's spans and MAC label, every
cache lookup and insert is its own call, and every byte is stored when it
is written.  There are no walk records, no cache replays and no deferred
sealing.  :func:`reference_engine` puts it behind the shipped
:class:`~repro.sgx.mee.MemoryEncryptionEngine` pipeline (block split,
:class:`~repro.sgx.crypto.CtrCipher`, stats, latency model), in place of
:class:`~repro.sgx.integrity_tree.IntegrityTree`.

A bulk save or restore is the eager batch the
:meth:`~repro.sgx.integrity_tree.IntegrityTree.update_range` and
:meth:`~repro.sgx.integrity_tree.IntegrityTree.verify_range` docstrings
document: metadata read and written as ranges, in their order, and the
cache traffic of per-block :func:`write_traffic` and :func:`verify_walk`.
"""

from __future__ import annotations

import struct
from itertools import count

from repro.errors import SecurityError
from repro.sgx.cache import MEECache
from repro.sgx.crypto import pack_counter, unpack_counter
from repro.sgx.integrity_tree import ARITY, BLOCK_SIZE, COUNTER_BYTES, MAC_BYTES, IntegrityTree
from repro.sgx.mee import MemoryEncryptionEngine

RECORD_BYTES = COUNTER_BYTES + MAC_BYTES  # one tree node: counter + MAC


class RecordingDevice:
    """Delegating device wrapper that logs every charged access.

    Each entry is ``(kind, address, length)``.  A ``charge_read`` or
    ``charge_write`` (an access whose bytes move later) is logged as the
    read or write it stands for.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.log = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def read(self, address, length):
        self.log.append(("read", address, length))
        return self.inner.read(address, length)

    def read_spans(self, spans):
        spans = list(spans)
        self.log.extend(("read", address, length) for address, length in spans)
        return self.inner.read_spans(spans)

    def write(self, address, data):
        self.log.append(("write", address, len(data)))
        return self.inner.write(address, data)

    def charge_read(self, address, length):
        self.log.append(("read", address, length))
        return self.inner.charge_read(address, length)

    def charge_write(self, address, length):
        self.log.append(("write", address, length))
        return self.inner.charge_write(address, length)


class NoCache:
    """The walks' cache when the tree has none: every lookup misses."""

    def lookup(self, key):
        return None

    def insert(self, key, counter):
        pass


def write_traffic(cache, first, stored, nodes):
    """A range write's cache traffic, block by block; returns the new versions.

    Per block: ``lookup((0, block))``, ``insert((0, block), version)``
    with ``version`` one more than the hit or the stored one, then
    ``insert((level, index), nodes[level - 1][index])`` per ancestor,
    bottom-up.  Per-access writes insert each ancestor's running counter;
    the last insert of each is its final counter, so the cache ends the
    same.
    """
    versions = []
    for block, old in zip(count(first), stored):
        cached = cache.lookup((0, block))
        version = (old if cached is None else cached) + 1
        versions.append(version)
        cache.insert((0, block), version)
        index = block
        for level, counters in enumerate(nodes, start=1):
            index //= ARITY
            cache.insert((level, index), counters[index])
    return versions


def verify_walk(cache, block, levels, leaf, node, root):
    """One block's verify walk: its cache lookups and inserts and its checks, in order.

    ``leaf(cached)`` checks the block's data MAC and returns its version
    (``cached`` on a hit).  On a miss the walk goes up: per level,
    ``node(level, index, cached, version)`` checks the node and returns
    its counter (``cached`` on a hit).  A hit ends the walk, since the
    cache is inside the security perimeter; the top node must hold
    ``root``.
    """
    cached = cache.lookup((0, block))
    version = leaf(cached)
    if cached is not None:
        return version
    index = block
    for level in range(1, levels + 1):
        index //= ARITY
        hit = cache.lookup((level, index))
        counter = node(level, index, hit, version)
        if hit is not None:
            break
        cache.insert((level, index), counter)
        if level == levels and counter != root:
            raise SecurityError(f"root counter mismatch: DRAM={counter} on-chip={root}")
    cache.insert((0, block), version)
    return version


def walk_traffic(cache, first, blocks, versions, nodes, root):
    """:func:`verify_walk` over stored counters up to the first failing root check.

    Returns the versions of the blocks whose walks passed.
    """
    done = []
    try:
        for block in range(first, first + blocks):
            done.append(verify_walk(
                cache,
                block,
                len(nodes),
                lambda cached: versions[block] if cached is None else cached,
                lambda level, index, hit, _v: nodes[level - 1][index] if hit is None else hit,
                root,
            ))
    except SecurityError:
        pass
    return done


class ReferenceTree:
    """The per-block, eager integrity tree (reference only).

    The interface :class:`~repro.sgx.mee.MemoryEncryptionEngine` uses of
    :class:`~repro.sgx.integrity_tree.IntegrityTree`; nothing is ever
    pending.
    """

    def __init__(self, geometry, device, mac_key, cache=None) -> None:
        self.geometry = geometry
        self.device = device
        self.mac_key = mac_key
        self.cache = cache
        self.root_counter = 0
        self.metadata_accesses = 0
        self.metadata_latency_ps = 0

    def _read_spans(self, spans):
        chunks, latency = self.device.read_spans(spans)
        self.metadata_accesses += len(spans)
        self.metadata_latency_ps += latency
        return chunks

    def _read(self, address, length):
        return self._read_spans([(address, length)])[0]

    def _write(self, address, data):
        latency = self.device.write(address, data)
        self.metadata_accesses += 1
        self.metadata_latency_ps += latency

    def _peek(self, spans):
        """The bytes of ``spans``, uncharged: a bulk read charged its ranges already."""
        return [self.device._store.read(address, length) for address, length in spans]

    def _walk_cache(self):
        return self.cache if self.cache is not None else NoCache()

    # --- per-block walks -----------------------------------------------------

    def _children_spans(self, level, index):
        """A walk's reads of node ``index``'s children: one range at level 1, else per counter."""
        address, length = self._children_extent(level, index, index)
        if level == 1:
            return [(address, length)]
        return [(at, COUNTER_BYTES) for at in range(address, address + length, RECORD_BYTES)]

    def _node_mac(self, level, index, counter, children):
        covered = b"".join(children).ljust(ARITY * COUNTER_BYTES, b"\0")
        label = f"node:{level}:{index}".encode("ascii")
        return self.mac_key.tag(label, pack_counter(counter), covered)

    def read_version(self, block):
        """The block's version: the cached one, else DRAM's, unverified.

        That is today's write path and the open version-rollback defect
        that ``tests/test_sgx_mee.py::TestLifecycle::
        test_write_after_version_rollback_is_refused`` (strict xfail)
        records.  The reference keeps the shipped write traffic until the
        fix changes it, here and in :meth:`update_range` alike.
        """
        cached = self._walk_cache().lookup((0, block))
        if cached is not None:
            return cached
        return unpack_counter(self._read(self.geometry.version_address(block), COUNTER_BYTES))

    def verify_block(self, block, ciphertext, read=None):
        """Verify ``ciphertext`` of ``block``; return its trusted version.

        ``read(spans)`` returns the metadata bytes; by default one charged
        device call per level.
        """
        read = read or self._read_spans
        geometry = self.geometry

        def leaf(cached):
            mac_span = (geometry.leaf_mac_address(block), MAC_BYTES)
            if cached is None:
                raw, stored_mac = read([(geometry.version_address(block), COUNTER_BYTES), mac_span])
                version = unpack_counter(raw)
            else:
                (stored_mac,) = read([mac_span])
                version = cached
            address = pack_counter(geometry.block_address(block))
            parts = (b"data", address, pack_counter(version), ciphertext)
            if not self.mac_key.verify(stored_mac, *parts):
                raise SecurityError(f"data MAC mismatch on block {block}")
            return version

        def node(level, index, cached, version):
            address = geometry.node_address(level, index)
            spans = self._children_spans(level, index) + [(address + COUNTER_BYTES, MAC_BYTES)]
            if cached is None:
                spans.insert(0, (address, COUNTER_BYTES))
            chunks = read(spans)
            stored_mac = chunks.pop()
            counter = unpack_counter(chunks.pop(0)) if cached is None else cached
            if self._node_mac(level, index, counter, chunks) != stored_mac:
                raise SecurityError(f"tree MAC mismatch at level {level} node {index}")
            at = (block % ARITY) * COUNTER_BYTES
            if level == 1 and unpack_counter(chunks[0][at : at + COUNTER_BYTES]) != version:
                raise SecurityError(f"leaf version replay on block {block}")
            return counter

        cache = self._walk_cache()
        return verify_walk(cache, block, geometry.levels, leaf, node, self.root_counter)

    def update_block(self, block, new_version, ciphertext):
        """Write the block's version and data MAC, then bump and re-MAC every ancestor."""
        geometry = self.geometry
        self._write(geometry.version_address(block), pack_counter(new_version))
        address = pack_counter(geometry.block_address(block))
        leaf_mac = self.mac_key.tag(b"data", address, pack_counter(new_version), ciphertext)
        self._write(geometry.leaf_mac_address(block), leaf_mac)
        self._walk_cache().insert((0, block), new_version)
        index = block
        for level in range(1, geometry.levels + 1):
            index //= ARITY
            node_address = geometry.node_address(level, index)
            counter = unpack_counter(self._read(node_address, COUNTER_BYTES)) + 1
            self._write(node_address, pack_counter(counter))
            children = self._read_spans(self._children_spans(level, index))
            mac = self._node_mac(level, index, counter, children)
            self._write(node_address + COUNTER_BYTES, mac)
            self._walk_cache().insert((level, index), counter)
        self.root_counter += 1

    # --- eager range paths ---------------------------------------------------

    def node_spans(self, first, last):
        """``(lo, hi)`` node indices above blocks ``first..last``, per level 1..top."""
        spans = []
        for _level in range(self.geometry.levels):
            first //= ARITY
            last //= ARITY
            spans.append((first, last))
        return spans

    def _children_extent(self, level, lo, hi):
        """``(address, length)`` of the child counters (or records) of nodes ``lo..hi``."""
        geometry = self.geometry
        first = lo * ARITY
        if level == 1:
            last = min((hi + 1) * ARITY, geometry.data_blocks)
            return geometry.version_address(first), (last - first) * COUNTER_BYTES
        last = min((hi + 1) * ARITY, geometry.level_counts[level - 2])
        return geometry.node_address(level - 1, first), (last - first) * RECORD_BYTES

    def _write_leaves(self, first, versions, ciphertext):
        """Versions, then data MACs, of consecutive blocks: one range write each."""
        geometry = self.geometry
        macs = [
            self.mac_key.tag(
                b"data",
                pack_counter(geometry.block_address(block)),
                pack_counter(version),
                ciphertext[(block - first) * BLOCK_SIZE : (block - first + 1) * BLOCK_SIZE],
            )
            for block, version in zip(count(first), versions)
        ]
        self._write(geometry.version_address(first), b"".join(map(pack_counter, versions)))
        self._write(geometry.leaf_mac_address(first), b"".join(macs))

    def _write_nodes(self, first, last, counters):
        """Per level bottom-up: read the children the level below left, write counter + MAC."""
        width = ARITY * COUNTER_BYTES
        for level, (lo, hi) in enumerate(self.node_spans(first, last), start=1):
            raw = self._read(*self._children_extent(level, lo, hi))
            if level > 1:
                records = range(0, len(raw), RECORD_BYTES)
                raw = b"".join(raw[at : at + COUNTER_BYTES] for at in records)
            records = []
            for index in range(lo, hi + 1):
                counter = counters[level - 1][index]
                children = [raw[(index - lo) * width : (index - lo + 1) * width]]
                records += [pack_counter(counter), self._node_mac(level, index, counter, children)]
            self._write(self.geometry.node_address(level, lo), b"".join(records))

    def initialize(self, ciphertext):
        """Every version and counter 0 with valid MACs over ``ciphertext``; the root 0."""
        blocks = self.geometry.data_blocks
        self._write_leaves(0, [0] * blocks, ciphertext)
        zeros = [dict.fromkeys(range(lo, hi + 1), 0) for lo, hi in self.node_spans(0, blocks - 1)]
        self._write_nodes(0, blocks - 1, zeros)
        self.root_counter = 0
        if self.cache is not None:
            self.cache.flush()

    def update_range(self, first, plaintext, encrypt):
        """The eager batch: read node records and versions, make the cache traffic,
        write versions, MACs and each level's records, bump the root, write the data."""
        geometry = self.geometry
        blocks = len(plaintext) // BLOCK_SIZE
        last = first + blocks - 1
        counters = []
        for level, (lo, hi) in enumerate(self.node_spans(first, last), start=1):
            raw = self._read(geometry.node_address(level, lo), (hi - lo + 1) * RECORD_BYTES)
            records = struct.iter_unpack(">Q8x", raw)  # the counters, skipping each MAC
            counters.append({index: counter for index, (counter,) in zip(count(lo), records)})
        for block in range(first, last + 1):
            index = block
            for level_counters in counters:
                index //= ARITY
                level_counters[index] += 1
        raw = self._read(geometry.version_address(first), blocks * COUNTER_BYTES)
        stored = [version for (version,) in struct.iter_unpack(">Q", raw)]
        versions = write_traffic(self._walk_cache(), first, stored, counters)
        starts = range(0, len(plaintext), BLOCK_SIZE)
        ciphertext = b"".join(
            encrypt(geometry.block_address(block), version, plaintext[at : at + BLOCK_SIZE])
            for block, version, at in zip(count(first), versions, starts)
        )
        self._write_leaves(first, versions, ciphertext)
        self._write_nodes(first, last, counters)
        self.root_counter += blocks
        self.device.write(geometry.block_address(first), ciphertext)

    def verify_range(self, first, ciphertext):
        """Read the metadata as ranges, then yield each block's version from per-block walks."""
        geometry = self.geometry
        blocks = len(ciphertext) // BLOCK_SIZE
        last = first + blocks - 1
        self._read(geometry.version_address(first), blocks * COUNTER_BYTES)
        self._read(geometry.leaf_mac_address(first), blocks * MAC_BYTES)
        for level, (lo, hi) in enumerate(self.node_spans(first, last), start=1):
            self._read(geometry.node_address(level, lo), (hi - lo + 1) * RECORD_BYTES)
            self._read(*self._children_extent(level, lo, hi))
        for block, at in zip(range(first, last + 1), range(0, len(ciphertext), BLOCK_SIZE)):
            yield self.verify_block(block, ciphertext[at : at + BLOCK_SIZE], self._peek)

    def pending_plaintext(self, first, count):
        return None  # every write is stored at once

    def materialize(self):
        pass


class ReferenceEngine(MemoryEncryptionEngine):
    """The shipped engine pipeline over a :class:`ReferenceTree`, set up eagerly."""

    def initialize_region(self):
        """Encrypt a zero block per block, store them, then :meth:`ReferenceTree.initialize`."""
        geometry = self.geometry
        ciphertext = b"".join(
            self._cipher.encrypt(geometry.block_address(block), 0, bytes(BLOCK_SIZE))
            for block in range(geometry.data_blocks)
        )
        self.device.write(geometry.data_offset, ciphertext)
        self.tree.initialize(ciphertext)
        self._initialized = True


def reference_engine(device, geometry, master_key, cache=None):
    """A :class:`ReferenceEngine`; ``cache`` None walks uncached."""
    engine = ReferenceEngine(device, geometry, master_key, cache or MEECache(1, 1))
    engine.tree = ReferenceTree(geometry, device, engine._mac, cache)
    return engine


def shipped_engine(device, geometry, master_key, cache=None):
    """The shipped engine and tree, built as :func:`reference_engine` builds its own."""
    engine = MemoryEncryptionEngine(device, geometry, master_key, cache or MEECache(1, 1))
    engine.tree = IntegrityTree(geometry, device, engine._mac, cache)
    return engine
