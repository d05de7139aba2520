"""The one seeded generator of MEE cases, and the lockstep run that checks them.

:func:`generated_case` draws, from ``random.Random(seed)``, a region of
1-5,000 blocks (last nodes padded at every level among them), a cache
(none, 1x1, 4x2, 64x8), DRAM or a PCM that wears out, walk records
prebuilt or built by the walks, and a :class:`Planner` that expands op
kinds into engine steps: per-access reads, writes, 16-byte
read-modify-writes and multi-block spans; bulk saves and restores
(unaligned, empty, save then restore, a save over part of a pending
save, the last save's range again across MEE power cycles); raw DRAM
reads; a tamper of each field; whole-region snapshot replays; MEE power
cycles and power-on with the start-up state; DRAM power loss;
``initialize_region``; tree calls outside the region.  A test may
re-weight the op kinds, narrow the tamper fields or rule out PCM.

:class:`Differential` runs each step on the shipped engine and on
:func:`~mee_reference.reference_engine`, which must agree on the
returned data (also against a shadow copy), latencies, errors, the
ordered device log, metadata counts and latency, the root, the ordered
cache lines and counts, :class:`~repro.sgx.mee.MEEStats`, the device
byte counts and every stored page.  On DRAM a shipped twin takes each
bulk transfer as the per-access call and must return the same data or
error and leave the same root, cache, stats and pages.
"""

import random

from mee_reference import RecordingDevice, reference_engine, shipped_engine

from repro.errors import MemoryFault, SecurityError
from repro.memory.dram import DRAMDevice
from repro.memory.nvm import PCMDevice
from repro.sgx.cache import _SCHEDULES, MEECache
from repro.sgx.integrity_tree import ARITY, BLOCK_SIZE, COUNTER_BYTES, TreeGeometry
from repro.sgx.mee import _IMAGES

MASTER = b"fuse-master-key-0123456789abcdef"
REGION_BASE = 1 << 16
CAPACITY = 1 << 20

#: Block counts whose last node is short at every level (4,097 blocks:
#: 513, 65, 9 and 2 nodes below a one-node top) or at some levels.
BLOCK_COUNTS = [1, 2, 7, 8, 9, 64, 65, 100, 513, 585, 4097, 5000]
CACHES = [None, (1, 1), (4, 2), (64, 8)]
FIELDS = ("data", "version", "leaf_mac", "node_counter", "node_mac", "sibling")
KINDS = {
    "read": 30, "write": 10, "partial": 8, "span": 8, "save": 6, "restore": 5,
    "save_restore": 5, "overlap": 3, "raw": 2, "tamper": 8, "cycle": 3, "startup": 1,
    "power_loss": 1, "initialize": 1, "replay": 1, "bad": 2,
}
#: Op kinds around one range saved and restored again and again across
#: MEE power cycles, as CTX-SGX-DRAM does every standby cycle.
REPEATS = {"save": 3, "save_restore": 3, "repeat": 12, "read": 3, "write": 2, "cycle": 2}
BULK = ("bulk_write", "bulk_read")


class Planner:
    """Expands op kinds into engine steps, appended to :attr:`plan`."""

    def __init__(self, rng, blocks, fields=FIELDS):
        self.rng = rng
        self.blocks = blocks
        self.fields = fields
        self.hot = [rng.randrange(blocks) for _ in range(4)] + [blocks - 1]
        self.saved = (0, 1)  # (first block, count) of the last bulk save
        self.plan = []
        self.floor = 0  # a replay's snapshot goes no earlier than this step

    def draw(self, kinds=KINDS, kind=None):
        """Expand ``kind``, or one drawn from the ``kinds`` weights."""
        rng, blocks, plan = self.rng, self.blocks, self.plan
        block = rng.choice(self.hot) if rng.random() < 0.5 else rng.randrange(blocks)
        if kind is None:
            kind = rng.choices(list(kinds), list(kinds.values()))[0]
        size = rng.randint(1, min(blocks - block, rng.choice((4, 40, 300))))
        at = block * BLOCK_SIZE
        if kind in ("read", "write", "partial"):
            length = 16 if kind == "partial" else BLOCK_SIZE
            at += 16 * rng.randrange(4) if kind == "partial" else 0
            data = rng.randbytes(length)
            plan.append(("read", at, length) if kind == "read" else ("write", at, data))
        elif kind == "span":
            at += rng.randrange(BLOCK_SIZE)
            length = min(rng.randint(1, 3 * BLOCK_SIZE), blocks * BLOCK_SIZE - at)
            plan.append(rng.choice((("read", at, length), ("write", at, rng.randbytes(length)))))
        elif kind in ("save", "restore"):
            # unaligned edges, or nothing, now and then
            at += rng.randrange(BLOCK_SIZE) if rng.random() < 0.3 else 0
            length = min(size * BLOCK_SIZE, blocks * BLOCK_SIZE - at) - rng.randrange(BLOCK_SIZE)
            length = 0 if rng.random() < 0.05 else max(length, 1)
            if kind == "save":
                plan.append(("bulk_write", at, rng.randbytes(length)))
                self.saved = (block, max(length // BLOCK_SIZE, 1))
            else:
                plan.append(("bulk_read", at, length))
        elif kind == "save_restore":
            self.saved = (block, size)
            start = block + rng.randrange(size)
            plan.append(("bulk_write", at, rng.randbytes(size * BLOCK_SIZE)))
            count = rng.randint(1, block + size - start)
            plan.append(("bulk_read", start * BLOCK_SIZE, count * BLOCK_SIZE))
        elif kind == "overlap":
            # a save over part of the last one, which may still be pending
            saved = self.saved
            start = saved[0] + rng.randrange(saved[1])
            end = min(rng.randint(start + 1, start + saved[1] + 8), blocks)
            self.saved = (start, end - start)
            data = rng.randbytes((end - start) * BLOCK_SIZE)
            plan.append(("bulk_write", start * BLOCK_SIZE, data))
        elif kind == "repeat":
            # the last save's range again after a power cycle, restored after another
            first, count = self.saved
            at, length = first * BLOCK_SIZE, count * BLOCK_SIZE
            plan += [("cycle",), ("bulk_write", at, rng.randbytes(length))]
            plan += [("cycle",), ("bulk_read", at, length)]
        elif kind == "raw":
            plan.append(("raw", rng.randrange(1 << 20), rng.randint(1, 96)))
        elif kind == "tamper":
            # flip a bit, read it back, and half the time flip it back
            field = rng.choice(self.fields)
            if field == "sibling" or rng.random() < 0.3:
                block = self.saved[0] + rng.randrange(self.saved[1])  # under a (maybe pending) save
            tamper = ("tamper", field, block, rng.randrange(1 << 16), rng.randrange(8))
            plan += [tamper, (rng.choice(("read", "bulk_read")), block * BLOCK_SIZE, BLOCK_SIZE)]
            plan += [tamper] * rng.randrange(2)
        elif kind == "replay":
            # the whole region as it was at an earlier snapshot, then a cold read
            plan.insert(rng.randrange(self.floor, len(plan) + 1), ("snapshot",))
            plan += [("replay",), ("cycle",), ("read", at, BLOCK_SIZE)]
        elif kind == "bad":
            method = rng.choice(("read_version", "verify_block", "update_block"))
            plan.append(("bad", method, rng.choice((-1, blocks))))
        elif kind == "initialize" and blocks > 1024:
            plan.append(("cycle",))  # large regions are initialized at set-up only
        else:
            plan.append((kind,))
            if kind == "power_loss" and rng.random() < 0.5:
                plan.append(("initialize",))


def generated_case(seed, kinds=KINDS, fields=FIELDS, pcm=0.2, steps=None):
    """``((blocks, cache, device kind, clear records), planner)`` of case ``seed``.

    The planner has drawn ``steps`` op kinds (15-45 by default) from the
    ``kinds`` weights; ``pcm`` is the chance of a wearing PCM.
    """
    rng = random.Random(seed)
    blocks = rng.choice(BLOCK_COUNTS + [rng.randint(1, 5000)])
    cache = rng.choice(CACHES)
    device_kind = "pcm" if rng.random() < pcm else "dram"
    clear_records = rng.random() < 0.5
    drawn = rng.randint(15, 45)
    planner = Planner(rng, blocks, fields)
    for _ in range(drawn if steps is None else steps):
        planner.draw(kinds)
    return (blocks, cache, device_kind, clear_records), planner


def image_path(engine):
    """How a shipped ``engine``'s next set-up gets its region image: built or replayed."""
    return ("image", "replayed" if engine._image_key in _IMAGES else "built")


def schedule_key(engine, step):
    """The cache-replay schedule key of a shipped bulk ``step``, or None if it replays none.

    A bulk write replays its whole blocks; a bulk read replays only when
    one pending write holds its blocks.
    """
    tree = engine.tree
    offset, data = step[1:]
    if tree.cache is None:
        return None
    if step[0] == "bulk_write":
        head = min(-offset % BLOCK_SIZE, len(data))
        first, count = (offset + head) // BLOCK_SIZE, (len(data) - head) // BLOCK_SIZE
    else:
        first = offset // BLOCK_SIZE
        count = (offset + data - 1) // BLOCK_SIZE - first + 1 if data else 0
        if not count or tree.pending_plaintext(first, count) is None:
            return None
    return (tree.cache.sets, first, count, engine.geometry.levels, ARITY) if count else None


def make_side(shipped, blocks, cache, device_kind, clear_records, source=None, seen=None):
    """``(engine, inner device, recording device)``, initialized or a copy of ``source``'s.

    A shipped side's set-up adds its :func:`image_path` to ``seen``.
    """
    pcm = device_kind == "pcm"
    inner = PCMDevice(capacity_bytes=CAPACITY) if pcm else DRAMDevice("dram", CAPACITY)
    device = RecordingDevice(inner)
    geometry = TreeGeometry.for_data_size(REGION_BASE, blocks * BLOCK_SIZE)
    cache = MEECache(*cache) if cache else None
    engine = (shipped_engine if shipped else reference_engine)(device, geometry, MASTER, cache)
    if source is None:
        if shipped and seen is not None:
            seen.add(image_path(engine))
        engine.initialize_region()
    else:
        pages = source[1]._store._pages
        inner._store._pages = {index: bytearray(page) for index, page in pages.items()}
        engine.power_on(source[0].export_state())
    if shipped and clear_records:
        for nodes in engine.tree._nodes:
            nodes.clear()  # every record is built by the walks themselves
    if pcm:
        inner.endurance_cycles = inner.max_writes_per_region + 6  # some regions wear out
    return engine, inner, device


def tamper_address(geometry, field, block, pick):
    level = 1 + pick % geometry.levels
    node = geometry.node_address(level, block // ARITY**level)
    sibling = min(block // ARITY * ARITY + pick % ARITY, geometry.data_blocks - 1)
    return {
        "data": geometry.block_address(block) + pick % BLOCK_SIZE,
        "version": geometry.version_address(block) + pick % COUNTER_BYTES,
        "leaf_mac": geometry.leaf_mac_address(block) + pick % COUNTER_BYTES,
        "node_counter": node + pick % COUNTER_BYTES,
        "node_mac": node + COUNTER_BYTES + pick % COUNTER_BYTES,
        # a sibling's version, under the level-1 node's MAC
        "sibling": geometry.version_address(sibling) + pick % COUNTER_BYTES,
    }[field]


def run_step(engine, inner, memo, step, twin=False):
    """One step's outcome: the result, or the error's type and message.

    ``twin`` takes a bulk transfer as the per-access call.
    """
    store = inner._store
    geometry = engine.geometry
    kind = step[0]
    region = (geometry.region_base, geometry.total_size)
    try:
        if kind in ("read", "write") + BULK:
            return getattr(engine, kind[5:] if twin and kind in BULK else kind)(*step[1:])
        if kind == "raw":
            address = geometry.region_base + step[1] % geometry.total_size
            return store.read(address, min(step[2], sum(region) - address))
        if kind == "snapshot":
            memo["snapshot"] = store.read(*region)
            return memo["snapshot"]
        if kind == "tamper":
            address = tamper_address(geometry, *step[1:4])
            store.write(address, bytes([store.read(address, 1)[0] ^ (1 << step[4])]))
        elif kind == "cycle":
            engine.power_on(engine.power_off())
        elif kind == "startup":
            engine.power_off()
            engine.power_on(memo["startup"])
        elif kind == "power_loss":
            inner.power_off()
            inner.power_on()
        elif kind == "initialize":
            engine.initialize_region()
        elif kind == "replay":
            store.write(geometry.region_base, memo["snapshot"])
        else:
            _bad, method, block = step
            args = {"read_version": (), "verify_block": (bytes(BLOCK_SIZE),)}
            getattr(engine.tree, method)(block, *args.get(method, (1, bytes(BLOCK_SIZE))))
        return None
    except (SecurityError, MemoryFault) as error:
        return (type(error).__name__, str(error))


def failed(outcome):
    return isinstance(outcome, tuple) and isinstance(outcome[0], str)


def essence(outcome):
    """The outcome without its latency: the data, the error, or None."""
    if isinstance(outcome, int):
        return None
    return outcome[0] if isinstance(outcome, tuple) and isinstance(outcome[1], int) else outcome


def twin_state(engine):
    """What a bulk transfer must leave as per-access calls would."""
    cache = engine.tree.cache
    if cache is not None:
        lines = [list(line.items()) for line in cache._lines.values()]
        cache = (lines, cache.hits, cache.misses, cache.evictions)
    return engine.tree.root_counter, cache, engine.stats


def state(engine, inner, device):
    """Everything but the stored bytes that the shipped engine shares with the reference."""
    tree = engine.tree
    metadata = (tree.metadata_accesses, tree.metadata_latency_ps)
    return twin_state(engine), metadata, (inner.bytes_read, inner.bytes_written), len(device.log)


def features(step, tree):
    """The op kinds a read, write or bulk ``step`` shows beyond its own kind."""
    offset, data = step[1:]
    length = data if isinstance(data, int) else len(data)
    first, last = offset // BLOCK_SIZE, (offset + length - 1) // BLOCK_SIZE
    overlaps = [start <= last and first <= end and not first <= start <= end <= last
                for start, end, _held in tree._ranges]
    return {
        "multi-block": last > first,
        "16-byte read-modify-write": step[0] == "write" and length == 16,
        "empty bulk": step[0] in BULK and not length,
        "unaligned bulk": step[0] in BULK and bool(length and (offset | length) % BLOCK_SIZE),
        "save over part of a pending save": step[0] == "bulk_write" and any(overlaps),
    }


class Shadow:
    """The plaintext the region should hold, and the blocks it cannot vouch for."""

    def __init__(self, blocks):
        self.data = bytearray(blocks * BLOCK_SIZE)
        self.unknown = set()

    def update(self, step, outcome):
        kind = step[0]
        if kind in ("write", "bulk_write", "read", "bulk_read"):
            offset = step[1]
            data = step[2] if "write" in kind else outcome[0]
            end = offset + len(data)
            touched = range(offset // BLOCK_SIZE, -(-end // BLOCK_SIZE))
            if failed(outcome):
                if "write" in kind:
                    self.unknown.update(touched)  # a failed write may have stored some blocks
            elif "write" in kind:
                self.data[offset:end] = data
                self.unknown.difference_update(
                    block for block in touched
                    if offset <= block * BLOCK_SIZE and (block + 1) * BLOCK_SIZE <= end
                )
            else:
                for block in set(touched) - self.unknown:
                    lo, hi = max(offset, block * BLOCK_SIZE), min(end, (block + 1) * BLOCK_SIZE)
                    assert data[lo - offset : hi - offset] == self.data[lo:hi], block
        elif kind in ("power_loss", "replay", "startup"):
            # a rolled-back region may verify: the MEE trusts its root
            self.unknown = set(range(len(self.data) // BLOCK_SIZE))
        elif kind == "initialize" and outcome is None:
            self.data[:] = bytes(len(self.data))
            self.unknown = set()


def count_seals(tree):
    """Count the shipped tree's seals; returns the count list."""
    seals = []
    seal = tree.materialize
    tree.materialize = lambda: (seals.append(1), seal())
    return seals


class Differential:
    """One case run in lockstep on the reference, the shipped engine and,
    on DRAM, the shipped per-access twin.

    :attr:`seen` collects what the case covered: its cache, device and
    padding, each shipped set-up's :func:`image_path`, every op kind and
    feature stepped, each tamper field, ``("served",)`` for a bulk read
    served from a pending save, ``("schedule replayed", kind)`` for a
    bulk transfer whose cache replay found its schedule memoized, and
    ``("twin", since)`` for a bulk transfer checked against the twin
    after the tamper field (or ``"replay"``, or None) last applied.
    :attr:`raised` collects ``(path, error type, first word of the
    message)``.
    """

    def __init__(self, seed, blocks, cache, device_kind, clear_records):
        case = (blocks, cache, device_kind, clear_records)
        self.seed = seed
        self.seen = {("cache", cache), ("device", device_kind)}
        self.sides = [make_side(shipped, *case, seen=self.seen) for shipped in (False, True)]
        if device_kind == "dram":  # the twin starts from the shipped engine's set-up bytes
            self.sides.append(make_side(True, *case, source=self.sides[1]))
        self.memos = [{"startup": engine.export_state()} for engine, _inner, _device in self.sides]
        self.reference, self.shipped = self.sides[0][0], self.sides[1][0]
        self.seals = count_seals(self.shipped.tree)
        self.shadow = Shadow(blocks)
        self.moved = False  # something other than a write moved the root or blocks_written
        self.since = None
        self.position = 0
        geometry = self.reference.geometry
        if all(count % ARITY for count in (blocks,) + geometry.level_counts[:-1]):
            self.seen.add(("padded everywhere", geometry.levels))
        self.raised = set()

    def step(self, step):
        """Run ``step`` on every side and check that they agree."""
        sides, seen, shipped = self.sides, self.seen, self.shipped
        where = (self.seed, self.position, step[:2])
        self.position += 1
        kind = step[0]
        seen.add(("op", kind))
        if kind == "initialize":
            seen.add(image_path(shipped))
        if kind in ("read", "write") + BULK:
            shown = features(step, shipped.tree).items()
            seen.update(("op", name) for name, drawn in shown if drawn)
        held = None
        if kind == "bulk_read" and step[2]:
            first, last = step[1] // BLOCK_SIZE, (step[1] + step[2] - 1) // BLOCK_SIZE
            held = shipped.tree.pending_plaintext(first, last - first + 1)
        schedule = schedule_key(shipped, step) if kind in BULK else None
        scheduled = schedule in _SCHEDULES
        sealed = len(self.seals)
        outcomes = [
            run_step(engine, inner, memo, step, twin=index == 2)
            for index, ((engine, inner, _device), memo) in enumerate(zip(sides, self.memos))
        ]
        want = outcomes[0]
        assert outcomes[1] == want, where
        assert state(*sides[1]) == state(*sides[0]), where
        if len(sides) == 3:
            assert essence(outcomes[2]) == essence(want), where
            assert twin_state(sides[2][0]) == twin_state(shipped), where
            if kind in BULK:
                seen.add(("twin", self.since))
        self.shadow.update(step, want)
        self.moved |= kind in ("startup", "initialize") or failed(want) and "Fault" in want[0]
        if not self.moved:
            assert self.reference.tree.root_counter == self.reference.stats.blocks_written, where
        if failed(want):
            path = "tree" if kind == "bad" else "bulk" if kind in BULK else "access"
            self.raised.add((path, want[0], want[1].split(" ")[0]))
        if held is not None and not failed(want) and len(self.seals) == sealed:
            seen.add(("served",))  # a bulk read from a pending save, never sealed
        if scheduled and next(reversed(_SCHEDULES)) == schedule:
            seen.add(("schedule replayed", kind))  # a memoized schedule, not one built
        if kind == "tamper":
            seen.add(("tamper", step[1]))
            self.since = step[1]
        elif kind == "replay":
            self.since = "replay"

    def finish(self):
        """Seal the shipped sides; every stored page and the device log must be the reference's."""
        sides = self.sides
        for engine, inner, _device in sides[1:]:
            engine.tree.materialize()
            assert inner._store._pages == sides[0][1]._store._pages, self.seed
        assert sides[1][2].log == sides[0][2].log, self.seed


def check_cases(seeds, **draws):
    """Run each seed's :func:`generated_case` (``draws`` as its keywords) to the end.

    Returns the union of the cases' ``(seen, raised)``.
    """
    seen, raised = set(), set()
    for seed in seeds:
        case, planner = generated_case(seed, **draws)
        differential = Differential(seed, *case)
        for step in planner.plan:
            differential.step(step)
        differential.finish()
        seen |= differential.seen
        raised |= differential.raised
    return seen, raised
