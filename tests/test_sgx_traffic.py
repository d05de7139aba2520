"""Traffic pin: the per-access MEE path charges the same DRAM accesses.

A :class:`~mee_reference.RecordingDevice` logs every charged access of a seeded
read/write/read-modify-write mix as ``(kind, address, length)``.  The
digest of that log and of the latencies the engine returns is pinned,
so a host-side speed-up of the tree walks cannot move a single modeled
access or latency.  The ``mee_cache_ablation`` rows are pinned the same
way.
"""

import hashlib
import json
import random

from mee_reference import RecordingDevice

from repro.analysis.ablations import MEECacheRow, mee_cache_ablation
from repro.core.techniques import TechniqueSet
from repro.memory.dram import DRAMDevice
from repro.memory.nvm import PCMDevice
from repro.sgx.cache import MEECache
from repro.sgx.integrity_tree import BLOCK_SIZE
from repro.sgx.mee import MemoryEncryptionEngine
from repro.system.skylake import SkylakePlatform

MASTER = b"fuse-master-key-0123456789abcdef"

#: ``mee_cache_ablation()`` with its defaults, recorded before the
#: per-access walks gathered their reads; compared with ``==``, so
#: every float must match to the last bit.
ABLATION_ROWS = [
    MEECacheRow(cache_nodes=1, hit_rate=0.0, metadata_accesses_per_read=29.0),
    MEECacheRow(
        cache_nodes=8, hit_rate=0.18546511627906978, metadata_accesses_per_read=24.6425
    ),
    MEECacheRow(
        cache_nodes=64, hit_rate=0.3250825082508251, metadata_accesses_per_read=14.44
    ),
    MEECacheRow(
        cache_nodes=512, hit_rate=0.4570446735395189, metadata_accesses_per_read=6.9875
    ),
    MEECacheRow(
        cache_nodes=2048, hit_rate=0.4586206896551724, metadata_accesses_per_read=6.9475
    ),
]


def traffic_digest(inner, accesses=600, seed=2020):
    """Digest of a seeded 70/15/15 read / write / 16-byte RMW mix.

    Runs on the platform's protected-region geometry (200 KB context)
    behind a 64x8 metadata cache, with one MEE power cycle (cold cache)
    halfway through.  Reads are checked against a shadow copy.
    """
    platform = SkylakePlatform(techniques=TechniqueSet.ctx_sgx_dram_only())
    geometry = platform.mee.geometry
    device = RecordingDevice(inner)
    engine = MemoryEncryptionEngine(device, geometry, MASTER, MEECache(64, 8))
    engine.initialize_region()
    shadow = bytearray(engine.data_capacity)
    rng = random.Random(seed)
    latencies = []
    for step in range(accesses):
        if step == accesses // 2:
            engine.power_on(engine.power_off())
        block = rng.randrange(geometry.data_blocks)
        kind = rng.choices(("read", "write", "partial"), weights=(70, 15, 15))[0]
        if kind == "read":
            offset = block * BLOCK_SIZE
            data, latency = engine.read(offset, BLOCK_SIZE)
            assert data == shadow[offset : offset + BLOCK_SIZE]
        else:
            length = 16 if kind == "partial" else BLOCK_SIZE
            offset = block * BLOCK_SIZE + (16 * rng.randrange(4) if kind == "partial" else 0)
            data = rng.randbytes(length)
            latency = engine.write(offset, data)
            shadow[offset : offset + length] = data
        latencies.append(latency)
    payload = {"log": device.log, "latencies": latencies}
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def test_dram_traffic_is_pinned():
    digest = traffic_digest(DRAMDevice("dram"))
    assert digest == "a42ee1d5af8f94b7195692eb30225112a3c128206de9e63082064e3470004ac0"


def test_pcm_traffic_is_pinned():
    digest = traffic_digest(PCMDevice())
    assert digest == "924ed38b63ef0fcfdccbda36fbfa9df45dc0213465e5b0bb07d2b6d20c4695a2"


def test_mee_cache_ablation_rows_are_pinned():
    assert mee_cache_ablation() == ABLATION_ROWS


def cache_digest(engine):
    """The ordered cache lines and counts, the root and the pending versions."""
    cache = engine.cache
    return {
        "lines": [list(line.items()) for line in cache._lines.values()],
        "counts": (cache.hits, cache.misses, cache.evictions),
        "root": engine.tree.root_counter,
        "versions": sorted(engine.tree.pending[0].items()),
    }


def bulk_cache_digest(seed=2020):
    """Digest of the cache state along a seeded bulk save / restore sequence.

    On the platform's protected-region geometry behind a 64x8 cache,
    after some per-access traffic: a 200 KB bulk save, its restore (from
    the pending write), a save that partly overlaps it with unaligned
    edges, its restore, and a restore across both (sealed, from DRAM).
    Each restore is checked against a shadow copy.
    """
    platform = SkylakePlatform(techniques=TechniqueSet.ctx_sgx_dram_only())
    geometry = platform.mee.geometry
    engine = MemoryEncryptionEngine(DRAMDevice("dram"), geometry, MASTER, MEECache(64, 8))
    engine.initialize_region()
    shadow = bytearray(engine.data_capacity)
    rng = random.Random(seed)
    for _ in range(200):
        block = rng.randrange(geometry.data_blocks)
        data = rng.randbytes(BLOCK_SIZE)
        engine.write(block * BLOCK_SIZE, data)
        shadow[block * BLOCK_SIZE : (block + 1) * BLOCK_SIZE] = data
        engine.read(rng.randrange(geometry.data_blocks) * BLOCK_SIZE, BLOCK_SIZE)
    states = []

    def save(offset, length):
        data = rng.randbytes(length)
        engine.bulk_write(offset, data)
        shadow[offset : offset + length] = data
        states.append(cache_digest(engine))

    def restore(offset, length):
        data, _latency = engine.bulk_read(offset, length)
        assert data == shadow[offset : offset + length]
        states.append(cache_digest(engine))

    size = 200 * 1024
    save(0, size)
    restore(0, size)
    save(150 * 1024 + 17, 40 * 1024)
    restore(150 * 1024 + 17, 40 * 1024)
    restore(100 * 1024, 100 * 1024)
    text = json.dumps(states, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def test_bulk_cache_state_is_pinned():
    digest = bulk_cache_digest()
    assert digest == "60f303ddec90b4b4757b47af5fcd95960d9ff170ee842fec8c17350627db3cb1"
