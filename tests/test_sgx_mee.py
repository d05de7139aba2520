"""Tests for the memory encryption engine."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st
from mee_reference import RecordingDevice, reference_engine, shipped_engine

from repro.errors import MemoryFault, SecurityError
from repro.memory.dram import DRAMDevice
from repro.memory.nvm import PCMDevice
from repro.sgx.cache import MEECache
from repro.sgx.crypto import pack_counter
from repro.sgx.integrity_tree import TreeGeometry
from repro.sgx.mee import _IMAGE_SLOTS, _IMAGES, MemoryEncryptionEngine
from repro.system.skylake import DEFAULT_MEE_MASTER_KEY

MASTER = b"fuse-master-key-0123456789abcdef"
REGION_BASE = 1 << 20


def make_mee(data_size=16 * 1024, device=None):
    if device is None:
        device = DRAMDevice("dram", capacity_bytes=256 * (1 << 20))
    geometry = TreeGeometry.for_data_size(REGION_BASE, data_size)
    mee = MemoryEncryptionEngine(device, geometry, MASTER, MEECache())
    mee.initialize_region()
    return device, mee


class TestDataPath:
    def test_roundtrip(self):
        _device, mee = make_mee()
        blob = bytes(range(256)) * 8
        mee.write(0, blob)
        data, latency = mee.read(0, len(blob))
        assert data == blob
        assert latency > 0

    def test_unaligned_partial_block_write(self):
        _device, mee = make_mee()
        mee.write(0, bytes(64))
        mee.write(10, b"inside")
        data, _ = mee.read(0, 64)
        assert data[10:16] == b"inside"
        assert data[:10] == bytes(10)

    def test_write_spanning_blocks(self):
        _device, mee = make_mee()
        blob = b"z" * 200  # spans 4 blocks, unaligned tail
        mee.write(30, blob)
        data, _ = mee.read(30, 200)
        assert data == blob

    def test_at_rest_content_is_ciphertext(self):
        device, mee = make_mee()
        plaintext = b"\x00" * 64
        mee.write(0, plaintext)
        raw = device._store.read(REGION_BASE, 64)
        assert raw != plaintext

    def test_rewrites_produce_fresh_ciphertext(self):
        device, mee = make_mee()
        plaintext = b"same-data-every-time" + bytes(44)
        mee.write(0, plaintext)
        first = device._store.read(REGION_BASE, 64)
        mee.write(0, plaintext)
        second = device._store.read(REGION_BASE, 64)
        assert first != second  # version bump re-keys the block

    def test_bounds_checked(self):
        _device, mee = make_mee(data_size=1024)
        with pytest.raises(SecurityError):
            mee.write(mee.data_capacity - 4, bytes(8))
        with pytest.raises(SecurityError):
            mee.read(-1, 4)

    def test_stats_accumulate(self):
        _device, mee = make_mee()
        mee.write(0, bytes(128))
        mee.read(0, 128)
        assert mee.stats.bytes_written == 128
        assert mee.stats.bytes_read == 128
        assert mee.stats.blocks_written == 2


class TestLifecycle:
    def test_uninitialized_region_rejected(self):
        device = DRAMDevice("dram", capacity_bytes=256 * (1 << 20))
        geometry = TreeGeometry.for_data_size(REGION_BASE, 1024)
        mee = MemoryEncryptionEngine(device, geometry, MASTER)
        with pytest.raises(SecurityError):
            mee.write(0, b"x")

    def test_power_cycle_preserves_protection(self):
        _device, mee = make_mee()
        blob = b"context!" * 16
        mee.write(0, blob)
        state = mee.power_off()
        with pytest.raises(SecurityError):
            mee.read(0, 8)
        mee.power_on(state)
        data, _ = mee.read(0, len(blob))
        assert data == blob

    def test_power_cycle_keeps_replay_protection(self):
        device, mee = make_mee()
        mee.write(0, b"v1" + bytes(62))
        snapshot_data = device._store.read(REGION_BASE, 64)
        state = mee.power_off()
        mee.power_on(state)
        mee.write(0, b"v2" + bytes(62))
        # attacker restores the old ciphertext after the power cycle
        device._store.write(REGION_BASE, snapshot_data)
        with pytest.raises(SecurityError):
            mee.read(0, 64)
        assert mee.stats.integrity_violations == 1

    @pytest.mark.xfail(
        strict=True,
        raises=pytest.fail.Exception,
        reason="known defect: the write paths trust the unverified DRAM version",
    )
    @pytest.mark.parametrize("method", ["write", "bulk_write"])
    def test_write_after_version_rollback_is_refused(self, method):
        """A rolled-back DRAM version must not be reused on a cold-cache write.

        ``write`` takes the block's next version from ``read_version``,
        which reads DRAM without walking the tree (``bulk_write`` reads
        the stored versions the same way).  Rolled back from 2 to 1, the
        write seals the new data under ``(address, version=2)`` again,
        the keystream the old ciphertext used, and the tree update
        re-MACs the path so the next read accepts it.
        """
        device, mee = make_mee()
        mee.write(0, bytes(range(64)))
        mee.write(0, bytes(range(64, 128)))  # version 2
        device._store.write(mee.geometry.version_address(0), pack_counter(1))
        mee.power_on(mee.power_off())  # cold cache: nothing vouches for version 2
        with pytest.raises(SecurityError):
            getattr(mee, method)(0, bytes(range(128, 192)))

    def test_malformed_state_rejected(self):
        _device, mee = make_mee()
        with pytest.raises(SecurityError):
            mee.import_state(b"short")


class TestRegionSetUp:
    """Set-up seals a region's version-0 image once per process and replays it."""

    def test_each_key_gets_its_own_image(self):
        """Engines under two master keys, set up alternately, each read back zeros
        from their own image, and a replayed set-up stores the first one's bytes."""
        geometry = TreeGeometry.for_data_size(REGION_BASE, 8192)
        sides = []
        for key in (b"k" * 32, DEFAULT_MEE_MASTER_KEY) * 2:
            device = DRAMDevice("dram", capacity_bytes=4 << 20)
            mee = MemoryEncryptionEngine(device, geometry, key, MEECache())
            mee.initialize_region()
            assert mee._image_key in _IMAGES
            assert mee.read(0, 8192)[0] == bytes(8192)
            sides.append((mee._image_key, device._store._pages))
        assert sides[0][0] != sides[1][0]
        assert [key for key, _pages in sides[2:]] == [key for key, _pages in sides[:2]]
        assert sides[0][1] != sides[1][1]  # a keystream and MACs of each key
        assert sides[2][1] == sides[0][1] and sides[3][1] == sides[1][1]
        assert len(_IMAGES) <= _IMAGE_SLOTS

    @pytest.mark.parametrize("endurance", range(6))
    def test_pcm_wearing_out_in_set_up_ends_as_eager_set_up(self, endurance):
        """A PCM that wears out during set-up (the data write, the versions, the
        MACs or a level's records) ends in the eager set-up's state with its
        error, whether the image is built or replayed."""
        geometry = TreeGeometry.for_data_size(REGION_BASE + 2048, 4096)
        ends = []
        for make in (reference_engine, shipped_engine, shipped_engine):
            device = PCMDevice(capacity_bytes=8 << 20)
            device.endurance_cycles = endurance
            recording = RecordingDevice(device)
            mee = make(recording, geometry, MASTER, MEECache(4, 2))
            if len(ends) == 1:
                _IMAGES.pop(mee._image_key, None)  # the first shipped set-up builds
            if len(ends) == 2:
                assert mee._image_key in _IMAGES  # the second replays
            try:
                mee.initialize_region()
                error = None
            except MemoryFault as fault:
                error = str(fault)
            tree = mee.tree
            ends.append((
                error, mee._initialized, recording.log, device._store._pages,
                device.bytes_written, device.bytes_read, device.wear_level_report(),
                tree.metadata_accesses, tree.metadata_latency_ps,
            ))
        assert ends[1] == ends[0]
        assert ends[2] == ends[0]
        # endurance 0-4 fault the data, versions, MACs, level-1 and level-2 writes
        assert (ends[0][0] is None) == (endurance == 5)


class TestBulkTransfers:
    def test_bulk_roundtrip(self):
        _device, mee = make_mee(data_size=200 * 1024)
        import hashlib
        blob = b"".join(
            hashlib.sha256(i.to_bytes(4, "big")).digest()
            for i in range(200 * 1024 // 32)
        )
        write_latency = mee.bulk_write(0, blob)
        data, read_latency = mee.bulk_read(0, len(blob))
        assert data == blob
        assert write_latency > read_latency  # writes RMW the metadata

    def test_save_over_part_of_a_pending_save(self):
        """A save that overwrites only part of an earlier, still pending save
        leaves both readable as written, restored whole or per block."""
        _device, mee = make_mee()
        shadow = bytearray(mee.data_capacity)
        for offset, fill in ((0, 1), (128, 2), (64, 3), (1024, 4), (960, 5)):
            data = bytes([fill]) * 256
            mee.bulk_write(offset, data)
            shadow[offset : offset + 256] = data
        for offset in (0, 128, 64, 960, 1024):
            assert mee.bulk_read(offset, 256)[0] == shadow[offset : offset + 256]
        mee.power_on(mee.power_off())
        assert mee.bulk_read(0, 1536)[0] == shadow[:1536]
        assert mee.read(0, 1536)[0] == shadow[:1536]

    def test_bulk_latency_matches_paper_scale(self):
        """Sec. 6.3: ~18 us save / ~13 us restore for 200 KB at DDR3-1600."""
        _device, mee = make_mee(data_size=200 * 1024)
        blob = bytes(200 * 1024)
        write_latency = mee.bulk_write(0, blob)
        _, read_latency = mee.bulk_read(0, len(blob))
        assert 10e6 < write_latency < 30e6   # 10-30 us window
        assert 8e6 < read_latency < 25e6

    def test_bulk_slows_down_with_dram_frequency(self):
        device, mee = make_mee(data_size=64 * 1024)
        blob = bytes(64 * 1024)
        fast = mee.bulk_write(0, blob)
        device.set_frequency(0.8e9)
        slow = mee.bulk_write(0, blob)
        assert slow > fast

    def test_bulk_works_over_pcm(self):
        device = PCMDevice(capacity_bytes=256 * (1 << 20))
        _d, mee = make_mee(data_size=16 * 1024, device=device)
        blob = bytes(16 * 1024)
        latency = mee.bulk_write(0, blob)
        data, _ = mee.bulk_read(0, len(blob))
        assert data == blob
        assert latency > 0


    def test_empty_bulk_transfers_touch_nothing(self):
        device, mee = make_mee()
        mee.bulk_write(0, bytes(256))

        def observed():
            return (
                device.bytes_read, device.bytes_written, mee.tree.metadata_accesses,
                mee.tree.root_counter, mee.cache.hits, mee.cache.misses,
                vars(mee.stats).copy(),
            )

        before = observed()
        assert mee.bulk_write(64, b"") == 0
        assert mee.bulk_read(64, 0) == (b"", 0)
        assert mee.bulk_read(mee.data_capacity, 0) == (b"", 0)
        assert observed() == before


class TestBulkDeviceCharges:
    """A bulk transfer charges the device for every access the eager
    batch makes, with the same faults, whenever its crypto runs."""

    @staticmethod
    def observed(device, mee):
        return (
            device.bytes_read, device.bytes_written, mee.tree.metadata_accesses,
            mee.tree.metadata_latency_ps, mee.tree.root_counter,
            (mee.cache.hits, mee.cache.misses, mee.cache.evictions), vars(mee.stats).copy(),
        )

    @pytest.mark.parametrize("state", ["self_refresh", "off"])
    @pytest.mark.parametrize("pending", [False, True])
    def test_bulk_transfer_in_a_dead_dram_state_faults(self, state, pending):
        device, mee = make_mee()
        if pending:
            mee.bulk_write(0, bytes(range(256)) * 16)
        if state == "self_refresh":
            device.enter_self_refresh()
        else:
            device.power_off()
        before = self.observed(device, mee)
        message = f"dram: access in state {state}"
        with pytest.raises(MemoryFault, match=message):
            mee.bulk_write(0, bytes(4096))
        with pytest.raises(MemoryFault, match=message):
            mee.bulk_read(0, 4096)
        with pytest.raises(MemoryFault, match=message):
            mee.bulk_read(4096, 64)
        assert self.observed(device, mee) == before

    # (saves completed, fault, bytes_written, bytes_read, wear per 4 KiB
    # region, root, sha256 prefix of the region bytes after the fault),
    # recorded from the engine that sealed every bulk write at once
    EXPECTED_WEAR = {
        # the ciphertext write of save 4 faults (the root already counts it)
        24: (3, "region 257 (25 > 24 writes)", 26320, 23536, {256: 5, 257: 25}, 256,
             "ae35948d96208ab1"),
        # the versions write of save 5 faults
        25: (4, "region 257 (26 > 25 writes)", 26832, 30096, {256: 5, 257: 26}, 256,
             "89c07ac9e4b733fb"),
        # the level-1 node write of save 5 faults
        27: (4, "region 257 (28 > 27 writes)", 27472, 30608, {256: 5, 257: 28}, 256,
             "c453c50f48c559bb"),
    }

    @pytest.mark.parametrize("endurance", sorted(EXPECTED_WEAR))
    def test_pcm_saves_wear_and_fault_as_eager_writes(self, endurance):
        """Save/restore a 4 KiB context over PCM until a write exceeds the
        endurance.  The data's last 4 KiB region also holds all the tree
        metadata, so each endurance limit faults a different write."""
        device = PCMDevice(capacity_bytes=8 << 20)
        device.endurance_cycles = endurance
        base = REGION_BASE + 2048
        geometry = TreeGeometry.for_data_size(base, 4096)
        mee = MemoryEncryptionEngine(device, geometry, MASTER, MEECache(4, 2))
        mee.initialize_region()
        rng = random.Random(endurance)
        saves = 0
        with pytest.raises(MemoryFault) as fault:
            while True:
                image = rng.randbytes(4096)
                mee.bulk_write(0, image)
                saves += 1
                assert mee.bulk_read(0, 4096)[0] == image
        region = device._store.read(base, geometry.total_size)
        got = (
            saves, str(fault.value).removeprefix("pcm: endurance exceeded on "),
            device.bytes_written, device.bytes_read, device.wear_level_report(),
            mee.tree.root_counter, hashlib.sha256(region).hexdigest()[:16],
        )
        assert got == self.EXPECTED_WEAR[endurance]


class TestBulkTamper:
    def test_bulk_read_rechecks_node_evicted_mid_transfer(self):
        """A node verified from a cache hit is checked again from DRAM once evicted.

        With a one-way cache, level-1 node 0 shares its set with block 3:
        blocks 1-3 trust its cached counter, block 3's insert evicts it,
        and block 4 must read the tampered DRAM counter and fail at
        level 1, exactly as per-access reads do.
        """
        engines = []
        for _ in range(2):
            device = DRAMDevice("dram", capacity_bytes=256 * (1 << 20))
            geometry = TreeGeometry.for_data_size(REGION_BASE, 8192)
            mee = MemoryEncryptionEngine(device, geometry, MASTER, MEECache(4, 1))
            mee.initialize_region()
            mee.read(0, 64)  # caches level-1 node 0
            address = geometry.node_address(1, 0)
            (byte,) = device._store.read(address, 1)
            device._store.write(address, bytes([byte ^ 1]))
            engines.append(mee)
        bulk, twin = engines
        with pytest.raises(SecurityError, match="level 1 node 0") as bulk_error:
            bulk.bulk_read(64, 4 * 64)
        with pytest.raises(SecurityError) as twin_error:
            twin.read(64, 4 * 64)
        assert str(bulk_error.value) == str(twin_error.value)
        assert bulk.stats == twin.stats
        assert bulk.stats.blocks_read == 1 + 3  # the warm-up read, then blocks 1-3


    def test_bulk_read_of_pending_write_checks_the_on_chip_root(self):
        """A restore served from a pending write still compares the top
        node with the on-chip root, as a read of the sealed bytes does."""
        outcomes = []
        for seal_first in (False, True):
            _device, mee = make_mee()
            mee.bulk_write(0, bytes(range(256)) * 4)
            if seal_first:
                mee.tree.materialize()
            mee.tree.root_counter += 1
            mee.cache.flush()
            with pytest.raises(SecurityError, match="root counter mismatch") as error:
                mee.bulk_read(64, 256)
            outcomes.append((str(error.value), mee.stats, mee.cache.hits, mee.cache.misses))
        assert outcomes[0] == outcomes[1]

    def test_failed_root_check_counts_the_blocks_read_before_it(self):
        """Block 1's cached leaf verifies it; block 2's walk reaches the stale
        root.  Pending or sealed, one block is read and one violation counted."""
        outcomes = []
        for seal_first in (False, True):
            _device, mee = make_mee()
            mee.bulk_write(0, bytes(range(256)) * 4)
            if seal_first:
                mee.tree.materialize()
            mee.tree.root_counter += 1
            mee.cache.flush()
            mee.cache.insert((0, 1), 1)
            with pytest.raises(SecurityError, match="root counter mismatch") as error:
                mee.bulk_read(64, 256)
            outcomes.append((str(error.value), mee.stats, mee.cache.hits, mee.cache.misses))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0][1].blocks_read, outcomes[0][1].integrity_violations) == (1, 1)


class TestRoundtripProperty:
    @given(
        offset=st.integers(min_value=0, max_value=1000),
        data=st.binary(min_size=1, max_size=500),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_offsets_roundtrip(self, offset, data):
        _device, mee = make_mee(data_size=2048)
        mee.write(offset, data)
        out, _ = mee.read(offset, len(data))
        assert out == data
