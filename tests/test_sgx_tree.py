"""Tests for the integrity tree: geometry, verification, tamper detection."""

import pytest

from repro.errors import SecurityError
from repro.memory.dram import DRAMDevice
from repro.sgx.cache import MEECache
from repro.sgx.crypto import MacKey, derive_key, pack_counter
from repro.sgx.integrity_tree import (
    ARITY,
    BLOCK_SIZE,
    COUNTER_BYTES,
    MAC_BYTES,
    IntegrityTree,
    TreeGeometry,
    seal_initial_image,
)
from repro.units import GIB

MASTER = b"fuse-master-key-0123456789abcdef"
REGION_BASE = 1 << 20


def make_tree(data_size=8 * 1024, cached=True):
    device = DRAMDevice("dram", capacity_bytes=256 * (1 << 20))
    geometry = TreeGeometry.for_data_size(REGION_BASE, data_size)
    mac = MacKey(derive_key(MASTER, "mac"))
    tree = IntegrityTree(geometry, device, mac, MEECache() if cached else None)
    # the raw zero blocks as the initial content
    tree.initialize(seal_initial_image(geometry, mac, bytes(geometry.data_blocks * BLOCK_SIZE)))
    return device, geometry, tree


class TestGeometry:
    def test_block_count_rounds_up(self):
        geometry = TreeGeometry.for_data_size(0, 100)
        assert geometry.data_blocks == 2  # 100 bytes -> 2 x 64 B blocks

    def test_levels_shrink_by_arity(self):
        geometry = TreeGeometry.for_data_size(0, 3200 * BLOCK_SIZE)
        assert geometry.level_counts == (400, 50, 7, 1)
        assert geometry.levels == 4

    def test_single_block_has_one_level(self):
        geometry = TreeGeometry.for_data_size(0, 64)
        assert geometry.level_counts == (1,)

    def test_layout_is_disjoint_and_ordered(self):
        geometry = TreeGeometry.for_data_size(REGION_BASE, 4096)
        assert geometry.data_offset == REGION_BASE
        assert geometry.versions_offset == REGION_BASE + geometry.data_blocks * BLOCK_SIZE
        assert geometry.leaf_macs_offset > geometry.versions_offset
        assert geometry.level_offset(1) > geometry.leaf_macs_offset

    def test_total_size_accounts_metadata(self):
        geometry = TreeGeometry.for_data_size(0, 4096)
        blocks = geometry.data_blocks
        expected = blocks * 64 + blocks * 16 + sum(geometry.level_counts) * 16
        assert geometry.total_size == expected

    def test_paper_capacity_claim(self):
        """Sec. 6.3: 200 KB context needs <0.3% of a 64 MB SGX region."""
        geometry = TreeGeometry.for_data_size(0, 200 * 1024)
        assert geometry.total_size / (64 * (1 << 20)) < 0.005

    def test_out_of_range_block_rejected(self):
        geometry = TreeGeometry.for_data_size(0, 4096)
        with pytest.raises(SecurityError):
            geometry.block_address(geometry.data_blocks)
        with pytest.raises(SecurityError):
            geometry.node_address(1, 10**6)

    @pytest.mark.parametrize("level", [0, -1, 5])
    def test_out_of_range_level_is_a_security_error(self, level):
        geometry = TreeGeometry.for_data_size(0, 3200 * BLOCK_SIZE)
        assert geometry.levels == 4
        with pytest.raises(SecurityError, match="level"):
            geometry.node_address(level, 0)

    def test_block_range_is_checked_once_at_both_ends(self):
        geometry = TreeGeometry.for_data_size(REGION_BASE, 4096)
        blocks = geometry.data_blocks
        assert geometry.block_range_address(2, blocks - 2) == geometry.block_address(2)
        for first, count in ((-1, 2), (1, blocks), (0, 0)):
            with pytest.raises(SecurityError):
                geometry.block_range_address(first, count)

    def test_invalid_size_rejected(self):
        with pytest.raises(SecurityError):
            TreeGeometry.for_data_size(0, 0)


def reference_record(geometry, level, index):
    """One node's walk record from the geometry's checked address methods."""
    address = geometry.node_address(level, index)
    first = index * ARITY
    if level == 1:
        count = min(first + ARITY, geometry.data_blocks) - first
        children = [(geometry.version_address(first), count * COUNTER_BYTES)]
    else:
        count = min(first + ARITY, geometry.level_counts[level - 2]) - first
        children = [
            (geometry.node_address(level - 1, first + child), COUNTER_BYTES)
            for child in range(count)
        ]
    walk = ((address, COUNTER_BYTES), *children, (address + COUNTER_BYTES, MAC_BYTES))
    # a hit reads all but the counter; an update the counter, then the children
    return (
        address, walk, walk[1:], walk[:1], walk[1:-1],
        f"node:{level}:{index}".encode(), bytes((ARITY - count) * COUNTER_BYTES),
    )


class TestWalkRecords:
    def test_prebuilt_records_equal_lazy_ones_on_a_padded_tree(self):
        """Set-up builds each level's records in one loop; they equal the
        records ``_node`` builds one at a time, and the geometry's own
        arithmetic, on a tree whose last node is short at all 5 levels."""
        _device, geometry, prebuilt = make_tree(data_size=4097 * BLOCK_SIZE, cached=False)
        assert geometry.level_counts == (513, 65, 9, 2, 1)
        lazy = IntegrityTree(geometry, None, prebuilt.mac_key)
        for level, count in enumerate(geometry.level_counts, start=1):
            assert sorted(prebuilt._nodes[level - 1]) == list(range(count))
            for index in reversed(range(count)):
                record = lazy._node(level, index)
                assert record == prebuilt._nodes[level - 1][index]
                assert tuple(record) == reference_record(geometry, level, index)
        assert lazy._nodes == prebuilt._nodes

    @pytest.mark.parametrize(
        "level, index", [(1, 513), (1, -1), (2, 65), (5, 1), (0, 0), (6, 0), (-4, 0)]
    )
    def test_missing_records_are_range_checked(self, level, index):
        """Out of the tree, a record is refused even where an index into the
        per-level records would land on another level's."""
        _device, _geometry, tree = make_tree(data_size=4097 * BLOCK_SIZE, cached=False)
        with pytest.raises(SecurityError):
            tree._node(level, index)


class TestVerifyUpdate:
    def test_initialized_zero_block_verifies(self):
        device, geometry, tree = make_tree()
        ciphertext = device._store.read(geometry.block_address(0), BLOCK_SIZE)
        assert tree.verify_block(0, ciphertext) == 0

    def test_update_then_verify(self):
        device, geometry, tree = make_tree()
        ciphertext = bytes(range(64))
        device.write(geometry.block_address(3), ciphertext)
        tree.update_block(3, 1, ciphertext)
        assert tree.verify_block(3, ciphertext) == 1

    def test_root_counter_increments_per_update(self):
        device, geometry, tree = make_tree()
        ciphertext = bytes(64)
        for expected in range(1, 4):
            device.write(geometry.block_address(0), ciphertext)
            tree.update_block(0, expected, ciphertext)
            assert tree.root_counter == expected

    def test_cache_hit_skips_upper_walk(self):
        device, geometry, tree = make_tree()
        ciphertext = device._store.read(geometry.block_address(0), BLOCK_SIZE)
        tree.verify_block(0, ciphertext)
        accesses_after_first = tree.metadata_accesses
        tree.verify_block(0, ciphertext)
        second_cost = tree.metadata_accesses - accesses_after_first
        assert second_cost < accesses_after_first


class TestTamperDetection:
    def test_flipped_ciphertext_detected(self):
        device, geometry, tree = make_tree()
        ciphertext = bytes(64)
        device.write(geometry.block_address(0), ciphertext)
        tree.update_block(0, 1, ciphertext)
        tampered = b"\xff" + ciphertext[1:]
        with pytest.raises(SecurityError, match="data MAC"):
            tree.verify_block(0, tampered)

    def test_tampered_version_detected(self):
        device, geometry, tree = make_tree(cached=False)
        ciphertext = bytes(64)
        device.write(geometry.block_address(0), ciphertext)
        tree.update_block(0, 1, ciphertext)
        device._store.write(geometry.version_address(0), pack_counter(99))
        with pytest.raises(SecurityError):
            tree.verify_block(0, ciphertext)

    def test_tampered_node_mac_detected(self):
        device, geometry, tree = make_tree(cached=False)
        ciphertext = bytes(64)
        device.write(geometry.block_address(0), ciphertext)
        tree.update_block(0, 1, ciphertext)
        node_addr = geometry.node_address(1, 0)
        device._store.write(node_addr + 8, b"\x00" * 8)  # clobber the MAC
        with pytest.raises(SecurityError, match="tree MAC"):
            tree.verify_block(0, ciphertext)

    def test_wholesale_replay_detected_by_root(self):
        """Snapshot-and-restore of the whole region must fail against the
        on-chip root counter — the freshness guarantee of Sec. 6.2."""
        device, geometry, tree = make_tree(cached=False)
        block_addr = geometry.block_address(0)
        old_cipher = bytes(64)
        device.write(block_addr, old_cipher)
        tree.update_block(0, 1, old_cipher)
        # attacker snapshots ALL metadata + data for block 0's path
        snapshot_ranges = [
            (block_addr, BLOCK_SIZE),
            (geometry.version_address(0), 8),
            (geometry.leaf_mac_address(0), 8),
        ]
        for level in range(1, geometry.levels + 1):
            snapshot_ranges.append((geometry.node_address(level, 0), 16))
        snapshot = {addr: device._store.read(addr, size) for addr, size in snapshot_ranges}
        # legitimate new write
        new_cipher = bytes([1]) * 64
        device.write(block_addr, new_cipher)
        tree.update_block(0, 2, new_cipher)
        # attacker restores the old snapshot (internally consistent!)
        for addr, data in snapshot.items():
            device._store.write(addr, data)
        with pytest.raises(SecurityError, match="root counter"):
            tree.verify_block(0, snapshot[block_addr])

    @pytest.mark.parametrize("cached", [True, False])
    def test_pending_read_checks_the_root(self, cached):
        """A read of a pending range write fails at the first block whose
        walk reaches a top node the on-chip root disagrees with."""
        _device, _geometry, tree = make_tree(cached=cached)
        tree.update_range(2, bytes(4 * BLOCK_SIZE), lambda address, version, block: block)
        assert tree.verify_pending(2, 4) == ([1, 1, 1, 1], None)
        tree.root_counter += 1
        if cached:
            tree.cache.flush()
        versions, failure = tree.verify_pending(2, 4)
        assert versions == []
        assert isinstance(failure, SecurityError)
        assert str(failure) == "root counter mismatch: DRAM=4 on-chip=5"

    def test_version_rollback_under_valid_group_detected(self):
        device, geometry, tree = make_tree(cached=False)
        ciphertext = bytes(64)
        device.write(geometry.block_address(0), ciphertext)
        tree.update_block(0, 1, ciphertext)
        device.write(geometry.block_address(0), ciphertext)
        tree.update_block(0, 2, ciphertext)
        # roll only the leaf version back to 1: level-1 MAC no longer matches
        device._store.write(geometry.version_address(0), pack_counter(1))
        with pytest.raises(SecurityError):
            tree.verify_block(0, ciphertext)
