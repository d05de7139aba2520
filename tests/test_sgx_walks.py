"""Generated differential of the per-access walks against the eager reference.

The one MEE generator (:mod:`mee_generator`) draws per-access op kinds
only: reads, writes, 16-byte read-modify-writes and multi-block spans
between tampers of every field, whole-region replays, power cycles, PCM
wear faults and tree calls outside the region.  The shipped walks, with
walk records prebuilt or built by the walks, must match the reference's
per-block walks, which rebuild each level's spans and label per call.
"""

import pytest
from mee_generator import CACHES, FIELDS, KINDS, MASTER, check_cases
from mee_reference import reference_engine, shipped_engine

from repro.errors import MemoryFault
from repro.memory.dram import DRAMDevice
from repro.memory.nvm import PCMDevice
from repro.sgx.cache import MEECache
from repro.sgx.crypto import pack_counter
from repro.sgx.integrity_tree import BLOCK_SIZE, COUNTER_BYTES, TreeGeometry

#: The generator's op kinds without the bulk saves and restores.
PER_ACCESS = {
    kind: weight for kind, weight in KINDS.items()
    if kind not in ("save", "restore", "save_restore", "overlap")
}


class TestWalkDifferential:
    """Wall budget: 3 s for this class (about 0.5 s on a 2-core host)."""

    CASES = 12

    def test_walks_equal_the_reference(self):
        seen, raised = check_cases(range(1000, 1000 + self.CASES), kinds=PER_ACCESS)
        assert {("cache", cache) for cache in CACHES} <= seen
        assert {("device", "pcm"), ("device", "dram")} <= seen
        assert {("tamper", field) for field in FIELDS} <= seen
        assert ("padded everywhere", 5) in seen
        access = {word for path, name, word in raised if path == "access" and name == "SecurityError"}
        assert {"data", "tree", "root"} <= access
        assert ("tree", "SecurityError", "block") in raised  # a block outside the region
        assert any(path == "access" and name == "MemoryFault" for path, name, _ in raised)


class TestWearOutInsideUpdateBlock:
    """A per-access write whose PCM wears out part-way up the update walk.

    64 blocks fill one 4 KiB PCM region with ciphertext, and every
    metadata byte (versions, data MACs, both node levels) sits in the
    next one.  After a few accesses, that region's endurance allows
    ``writes`` more writes, so the fault fires at that write of the
    walk: 0 the version, 1 the data MAC, 2-5 the counter and MAC of
    levels 1 and 2.  The shipped tree must keep the accesses and latency
    of the walk up to the fault, as the reference does.
    """

    @pytest.mark.parametrize("writes", range(6))
    def test_totals_equal_the_reference(self, writes):
        sides = []
        for make in (shipped_engine, reference_engine):
            device = PCMDevice(capacity_bytes=1 << 16)
            geometry = TreeGeometry.for_data_size(1 << 12, 64 * BLOCK_SIZE)
            engine = make(device, geometry, MASTER, MEECache(4, 2))
            engine.initialize_region()
            for block in (3, 17, 40):  # a warm cache, a few walks deep
                engine.write(block * BLOCK_SIZE, bytes([block]) * BLOCK_SIZE)
                engine.read(block * BLOCK_SIZE, BLOCK_SIZE)
            metadata_region = geometry.versions_offset // 4096
            assert metadata_region == geometry.level_offset(2) // 4096
            device.endurance_cycles = device.wear_level_report()[metadata_region] + writes
            with pytest.raises(MemoryFault) as fault:
                engine.write(9 * BLOCK_SIZE, b"w" * BLOCK_SIZE)
            tree, cache = engine.tree, engine.tree.cache
            sides.append((
                str(fault.value),
                tree.metadata_accesses,
                tree.metadata_latency_ps,
                tree.root_counter,
                [list(line.items()) for line in cache._lines.values()],
                (cache.hits, cache.misses, cache.evictions),
                (device.bytes_read, device.bytes_written),
            ))
        assert f"endurance exceeded on region {metadata_region}" in sides[0][0]
        assert sides[0] == sides[1]


class TestCounterWrap:
    """The walks pack a counter as :func:`pack_counter` does, 64-bit wrap included."""

    @pytest.mark.parametrize("version", [2**64 - 1, 2**64])
    def test_versions_at_the_wrap_equal_the_reference(self, version):
        ciphertext = bytes(range(BLOCK_SIZE))
        sides = []
        for make in (shipped_engine, reference_engine):
            device = DRAMDevice("dram", 1 << 16)
            geometry = TreeGeometry.for_data_size(1 << 12, 64 * BLOCK_SIZE)
            engine = make(device, geometry, MASTER, MEECache(4, 2))
            engine.initialize_region()
            tree = engine.tree
            tree.update_block(9, version, ciphertext)
            stored = device._store.read(geometry.version_address(9), COUNTER_BYTES)
            assert stored == pack_counter(version)
            hit = tree.verify_block(9, ciphertext)  # the cached, unwrapped version
            engine.cache.flush()
            read = tree.verify_block(9, ciphertext)  # the stored, wrapped one
            region = device._store.read(geometry.region_base, geometry.total_size)
            sides.append((hit, read, region, tree.metadata_accesses, tree.metadata_latency_ps))
        assert sides[0][:2] == (version, version % 2**64)
        assert sides[0] == sides[1]
