"""Generated differential: the per-access tree walks against the per-block reference.

:class:`ReferenceTree` keeps, as a reference only, the per-block
``read_version``, ``verify_block`` and ``update_block`` that rebuilt each
level's spans and MAC label on every call.  The shipped walks read them
from walk records instead.  Twin engines run the same generated
read / write / 16-byte read-modify-write sequences, with MEE power cycles,
DRAM tampering, wholesale replays of an earlier region image and, on a
wearing PCM, endurance faults.  Both must return
the same data, latencies and errors, log the same charged device
accesses, and leave the same metadata counts, ordered cache lines and
counts, :class:`~repro.sgx.mee.MEEStats`, root and stored bytes.
"""

import random

from test_sgx_traffic import RecordingDevice

from repro.errors import MemoryFault, SecurityError
from repro.memory.dram import DRAMDevice
from repro.memory.nvm import PCMDevice
from repro.sgx.cache import MEECache
from repro.sgx.crypto import pack_counter, unpack_counter
from repro.sgx.integrity_tree import (
    ARITY,
    BLOCK_SIZE,
    COUNTER_BYTES,
    MAC_BYTES,
    IntegrityTree,
    TreeGeometry,
)
from repro.sgx.mee import MemoryEncryptionEngine

MASTER = b"fuse-master-key-0123456789abcdef"
REGION_BASE = 1 << 16
CAPACITY = 1 << 20


class ReferenceTree(IntegrityTree):
    """The per-block walks as they were before walk records (reference only)."""

    def _read_spans(self, spans):
        chunks, latency = self.device.read_spans(spans)
        self.metadata_accesses += len(spans)
        self.metadata_latency_ps += latency
        return chunks

    def read_version(self, block):
        if self.cache is not None:
            cached = self.cache.lookup((0, block))
            if cached is not None:
                return cached
        return unpack_counter(self._read(self.geometry.version_address(block), COUNTER_BYTES))

    def _children_reads(self, level, index):
        geometry = self.geometry
        first = index * ARITY
        if level == 1:
            last = min(first + ARITY, geometry.data_blocks)
            return [(geometry.version_address(first), (last - first) * COUNTER_BYTES)]
        last = min(first + ARITY, geometry.level_counts[level - 2])
        base = geometry.node_address(level - 1, first)
        return [(base + child * 16, COUNTER_BYTES) for child in range(last - first)]

    @staticmethod
    def _children(chunks):
        return b"".join(chunks).ljust(ARITY * COUNTER_BYTES, b"\0")

    @staticmethod
    def _node_mac_input(level, index, counter, children):
        return (f"node:{level}:{index}".encode("ascii"), pack_counter(counter), children)

    def verify_block(self, block, ciphertext):
        geometry = self.geometry
        version_cached = None
        if self.cache is not None:
            version_cached = self.cache.lookup((0, block))
        mac_span = (geometry.leaf_mac_address(block), MAC_BYTES)
        if version_cached is not None:
            version = version_cached
            (stored_mac,) = self._read_spans([mac_span])
        else:
            raw_version, stored_mac = self._read_spans(
                [(geometry.version_address(block), COUNTER_BYTES), mac_span]
            )
            version = unpack_counter(raw_version)
        address = geometry.block_address(block)
        if not self.mac_key.verify(
            stored_mac, b"data", pack_counter(address), pack_counter(version), ciphertext
        ):
            raise SecurityError(f"data MAC mismatch on block {block}")
        if version_cached is not None:
            return version
        self._verify_counters_upward(block, version)
        if self.cache is not None:
            self.cache.insert((0, block), version)
        return version

    def _verify_counters_upward(self, block, leaf_version):
        geometry = self.geometry
        child_index = block
        for level in range(1, geometry.levels + 1):
            index = child_index // ARITY
            node_address = geometry.node_address(level, index)
            cached = self.cache.lookup((level, index)) if self.cache is not None else None
            spans = self._children_reads(level, index)
            spans.append((node_address + COUNTER_BYTES, MAC_BYTES))
            if cached is None:
                spans.insert(0, (node_address, COUNTER_BYTES))
            chunks = self._read_spans(spans)
            stored_mac = chunks.pop()
            if cached is not None:
                counter = cached
                trusted = True
            else:
                counter = unpack_counter(chunks.pop(0))
                trusted = False
            children = self._children(chunks)
            if not self.mac_key.verify(
                stored_mac, *self._node_mac_input(level, index, counter, children)
            ):
                raise SecurityError(f"tree MAC mismatch at level {level} node {index}")
            if level == 1:
                offset = (block % ARITY) * COUNTER_BYTES
                covered = unpack_counter(children[offset : offset + COUNTER_BYTES])
                if covered != leaf_version:
                    raise SecurityError(f"leaf version replay on block {block}")
            if trusted:
                return
            if self.cache is not None:
                self.cache.insert((level, index), counter)
            if level == geometry.levels:
                if counter != self.root_counter:
                    raise SecurityError(
                        f"root counter mismatch: DRAM={counter} on-chip={self.root_counter}"
                    )
                return
            child_index = index

    def update_block(self, block, new_version, ciphertext):
        geometry = self.geometry
        self._write(geometry.version_address(block), pack_counter(new_version))
        address = geometry.block_address(block)
        leaf_mac = self.mac_key.tag(
            b"data", pack_counter(address), pack_counter(new_version), ciphertext
        )
        self._write(geometry.leaf_mac_address(block), leaf_mac)
        if self.cache is not None:
            self.cache.insert((0, block), new_version)
        child_index = block
        for level in range(1, geometry.levels + 1):
            index = child_index // ARITY
            node_address = geometry.node_address(level, index)
            counter = unpack_counter(self._read(node_address, COUNTER_BYTES)) + 1
            self._write(node_address, pack_counter(counter))
            children = self._children(self._read_spans(self._children_reads(level, index)))
            mac = self.mac_key.tag(*self._node_mac_input(level, index, counter, children))
            self._write(node_address + COUNTER_BYTES, mac)
            if self.cache is not None:
                self.cache.insert((level, index), counter)
            child_index = index
        self.root_counter += 1


#: Block counts whose last node is short at every level (4,097 blocks:
#: 513, 65, 9 and 2 nodes below a one-node top) or at some levels.
PADDED_EVERYWHERE = 4097
BLOCK_COUNTS = [1, 2, 7, 8, 9, 64, 65, 100, 513, 585, PADDED_EVERYWHERE, 5000]
CACHES = [None, (1, 1), (4, 2), (64, 8)]


def padded_levels(geometry):
    """Levels (1-based) whose last node has fewer than ARITY children."""
    counts = (geometry.data_blocks,) + geometry.level_counts
    return {level for level in range(1, geometry.levels + 1) if counts[level - 1] % ARITY}


def make_engine(tree_class, blocks, cache, device_kind, clear_records):
    if device_kind == "pcm":
        inner = PCMDevice(capacity_bytes=CAPACITY)
    else:
        inner = DRAMDevice("dram", capacity_bytes=CAPACITY)
    device = RecordingDevice(inner)
    geometry = TreeGeometry.for_data_size(REGION_BASE, blocks * BLOCK_SIZE)
    # the engine always owns a cache; with ``cache`` None its tree walks without one
    engine = MemoryEncryptionEngine(device, geometry, MASTER, MEECache(*(cache or (1, 1))))
    engine.tree = tree_class(geometry, device, engine._mac, engine.cache if cache else None)
    engine.initialize_region()
    if clear_records:
        for nodes in engine.tree._nodes:
            nodes.clear()  # every record is built by the walks themselves
    if device_kind == "pcm":
        # wear out: some metadata regions fault within the sequence
        inner.endurance_cycles = inner.max_writes_per_region + 6
    return engine, inner, device


def generated_plan(rng, geometry, steps):
    blocks = geometry.data_blocks
    hot = [rng.randrange(blocks) for _ in range(4)] + [blocks - 1]
    plan = []
    for _ in range(steps):
        block = rng.choice(hot) if rng.random() < 0.5 else rng.randrange(blocks)
        kind = rng.choices(
            ("read", "write", "partial", "span", "cycle", "tamper", "snapshot", "replay", "bad"),
            weights=(45, 15, 15, 10, 5, 10, 2, 2, 2),
        )[0]
        if kind == "read":
            plan.append(("read", block * BLOCK_SIZE, BLOCK_SIZE))
        elif kind == "write":
            plan.append(("write", block * BLOCK_SIZE, rng.randbytes(BLOCK_SIZE)))
        elif kind == "partial":
            plan.append(("write", block * BLOCK_SIZE + 16 * rng.randrange(4), rng.randbytes(16)))
        elif kind == "span":
            offset = block * BLOCK_SIZE + rng.randrange(BLOCK_SIZE)
            length = min(rng.randint(1, 3 * BLOCK_SIZE), blocks * BLOCK_SIZE - offset)
            if rng.random() < 0.5:
                plan.append(("read", offset, length))
            else:
                plan.append(("write", offset, rng.randbytes(length)))
        elif kind == "bad":
            # a tree call for a block outside the region, past either end
            method = rng.choice(("read_version", "verify_block", "update_block"))
            plan.append(("bad", method, rng.choice((-1, blocks))))
        elif kind in ("cycle", "snapshot"):
            plan.append((kind,))
        elif kind == "replay":
            # the whole region as it was at the last snapshot, then a cold read
            plan.extend([("replay",), ("cycle",), ("read", block * BLOCK_SIZE, BLOCK_SIZE)])
        else:
            field = rng.choice(("data", "version", "leaf_mac", "node_counter", "node_mac"))
            level = rng.randint(1, geometry.levels)
            plan.append(("tamper", field, block, level, rng.randrange(8)))
            plan.append(("read", block * BLOCK_SIZE, BLOCK_SIZE))
    return plan


def tamper_address(geometry, field, block, level):
    if field == "data":
        return geometry.block_address(block)
    if field == "version":
        return geometry.version_address(block)
    if field == "leaf_mac":
        return geometry.leaf_mac_address(block)
    node = geometry.node_address(level, block // ARITY**level)
    return node if field == "node_counter" else node + COUNTER_BYTES


def run_step(engine, inner, saved, step):
    """One step's outcome: its result, or the error it raised."""
    store = inner._store
    try:
        if step[0] == "read":
            return engine.read(step[1], step[2])
        if step[0] == "write":
            return engine.write(step[1], step[2])
        if step[0] == "cycle":
            engine.power_on(engine.power_off())
        elif step[0] == "bad":
            _bad, method, block = step
            args = {"read_version": (), "verify_block": (bytes(BLOCK_SIZE),)}
            getattr(engine.tree, method)(block, *args.get(method, (1, bytes(BLOCK_SIZE))))
        elif step[0] == "snapshot":
            saved["pages"] = {index: bytes(page) for index, page in store._pages.items()}
        elif step[0] == "replay":
            pages = saved.get("pages", {})
            store._pages = {index: bytearray(page) for index, page in pages.items()}
        else:
            _tamper, field, block, level, bit = step
            address = tamper_address(engine.geometry, field, block, level)
            (byte,) = store.read(address, 1)
            store.write(address, bytes([byte ^ (1 << bit)]))
        return None
    except (SecurityError, MemoryFault) as error:
        return (type(error).__name__, str(error))


def state(engine, inner, device):
    tree, cache = engine.tree, engine.cache
    return {
        "log": len(device.log),
        "metadata": (tree.metadata_accesses, tree.metadata_latency_ps, tree.root_counter),
        "cache": (
            [list(line.items()) for line in cache._lines.values()],
            cache.hits,
            cache.misses,
            cache.evictions,
        ),
        "stats": engine.stats,
        "device": (inner.bytes_read, inner.bytes_written),
    }


def generated_case(seed):
    rng = random.Random(seed)
    blocks = rng.choice(BLOCK_COUNTS + [rng.randint(1, 5000)])
    cache = rng.choice(CACHES)
    device_kind = "pcm" if rng.random() < 0.2 else "dram"
    clear_records = rng.random() < 0.5
    geometry = TreeGeometry.for_data_size(REGION_BASE, blocks * BLOCK_SIZE)
    plan = generated_plan(rng, geometry, rng.randint(20, 60))
    return blocks, cache, device_kind, clear_records, geometry, plan


class TestWalkDifferential:
    """The walk-record walks against :class:`ReferenceTree`, generated.

    1-5,000 blocks (last nodes padded at every level among them), no
    cache or 1x1, 4x2 and 64x8 caches, DRAM or a wearing PCM, records
    prebuilt by ``initialize`` or built by the walks, and tree calls for
    blocks outside the region.  Wall budget: 15 s for this class (about
    4 s on a 2-core host).
    """

    CASES = 90

    def test_walks_equal_the_reference(self):
        seen = set()
        for seed in range(self.CASES):
            blocks, cache, device_kind, clear_records, geometry, plan = generated_case(seed)
            sides = [
                make_engine(tree_class, blocks, cache, device_kind, clear_records)
                for tree_class in (ReferenceTree, IntegrityTree)
            ]
            saved = [{}, {}]
            for position, step in enumerate(plan):
                outcomes = [
                    run_step(engine, inner, snapshot, step)
                    for (engine, inner, _device), snapshot in zip(sides, saved)
                ]
                assert outcomes[0] == outcomes[1], (seed, position, step)
                assert state(*sides[0]) == state(*sides[1]), (seed, position, step)
                if isinstance(outcomes[0], tuple) and isinstance(outcomes[0][0], str):
                    seen.add(("error", outcomes[0][0], outcomes[0][1].split(" ")[0]))
                if step[0] == "tamper":
                    seen.add(("tamper", step[1]))
            (_engine, want, want_log), (_engine, got, got_log) = sides
            assert got_log.log == want_log.log, seed
            assert got._store._pages == want._store._pages, seed
            seen.add(("cache", cache))
            seen.add(("device", device_kind))
            if padded_levels(geometry) == set(range(1, geometry.levels + 1)):
                seen.add(("padded everywhere", geometry.levels))
        assert {("cache", cache) for cache in CACHES} <= seen
        assert {("device", "pcm"), ("device", "dram")} <= seen
        fields = ("data", "version", "leaf_mac", "node_counter", "node_mac")
        assert {("tamper", field) for field in fields} <= seen
        assert ("padded everywhere", 5) in seen
        messages = {key[2] for key in seen if key[0] == "error"}
        assert {"data", "tree", "root", "block"} <= messages  # every reachable SecurityError
        assert ("error", "MemoryFault", "pcm:") in seen
