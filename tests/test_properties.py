"""Cross-cutting property-based tests on core invariants."""

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.clocks.clock import DerivedClock
from repro.clocks.crystal import CrystalOscillator
from repro.errors import MemoryFault, SecurityError
from repro.memory.dram import DRAMDevice
from repro.power.meter import EnergyMeter
from repro.sgx.cache import MEECache
from repro.sgx.integrity_tree import TreeGeometry
from repro.sgx.mee import MemoryEncryptionEngine
from repro.timers.calibration import StepCalibrator
from repro.timers.dual_timer import ChipsetDualTimer
from repro.units import PICOSECONDS_PER_SECOND, SECOND


class TestMeterProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=10**9),  # duration steps
                st.floats(min_value=0, max_value=10.0),     # power level
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_integration_matches_sum_of_rectangles(self, steps):
        """Meter energy == sum(power * duration) for any step sequence."""
        meter = EnergyMeter()
        now = 0
        expected = 0.0
        previous_power = 0.0
        for duration, power in steps:
            meter.set_power(now, "x", power)
            expected_piece = power * duration / PICOSECONDS_PER_SECOND
            now += duration
            expected += expected_piece
            previous_power = power
        assert meter.energy("x", up_to_ps=now) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    @given(
        st.lists(st.floats(min_value=0, max_value=5.0), min_size=2, max_size=10),
        st.integers(min_value=1, max_value=10**10),
    )
    @settings(max_examples=30, deadline=None)
    def test_total_equals_sum_of_channels(self, powers, window):
        meter = EnergyMeter()
        for index, power in enumerate(powers):
            meter.set_power(0, f"ch{index}", power)
        total = meter.total_energy(up_to_ps=window)
        parts = sum(meter.energy(f"ch{index}") for index in range(len(powers)))
        assert total == pytest.approx(parts)


class TestTimerProperties:
    @given(
        fast_ppm=st.floats(min_value=-150, max_value=150),
        slow_ppm=st.floats(min_value=-150, max_value=150),
        reads=st.lists(st.integers(min_value=1, max_value=10**12), min_size=2, max_size=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_slow_mode_reads_monotonic_nondecreasing(self, fast_ppm, slow_ppm, reads):
        fast = CrystalOscillator("f", 24e6, ppm_error=fast_ppm)
        slow = CrystalOscillator("s", 32768.0, ppm_error=slow_ppm)
        calibrator = StepCalibrator.for_precision(fast, slow)
        timer = ChipsetDualTimer(
            "t", DerivedClock("fc", fast), DerivedClock("sc", slow),
            frac_bits=calibrator.frac_bits,
        )
        timer.set_step(calibrator.run(0).step)
        timer.load_fast(0, 0)
        edge = timer.next_slow_edge(0)
        timer.switch_to_slow(edge)
        now = edge
        previous = timer.read(now)
        for delta in reads:
            now += delta
            value = timer.read(now)
            assert value >= previous
            previous = value

    @given(
        target_s=st.floats(min_value=0.001, max_value=100.0),
        fast_ppm=st.floats(min_value=-100, max_value=100),
    )
    @settings(max_examples=25, deadline=None)
    def test_slow_mode_deadline_is_tight(self, target_s, fast_ppm):
        """time_of_count returns the FIRST slow edge meeting the target."""
        fast = CrystalOscillator("f", 24e6, ppm_error=fast_ppm)
        slow = CrystalOscillator("s", 32768.0)
        calibrator = StepCalibrator.for_precision(fast, slow)
        timer = ChipsetDualTimer(
            "t", DerivedClock("fc", fast), DerivedClock("sc", slow),
            frac_bits=calibrator.frac_bits,
        )
        timer.set_step(calibrator.run(0).step)
        timer.load_fast(0, 0)
        edge = timer.next_slow_edge(0)
        timer.switch_to_slow(edge)
        target = timer.read(edge) + round(target_s * 24e6)
        when = timer.time_of_count(target, edge)
        assert timer.read(when) >= target
        if when - slow.period_ps > edge:
            assert timer.read(when - slow.period_ps) < target


def make_engine(data_size, sets=4, ways=2):
    """An initialized MEE on its own DRAM; every engine shares one key."""
    device = DRAMDevice("dram", capacity_bytes=64 * (1 << 20))
    geometry = TreeGeometry.for_data_size(1 << 20, data_size)
    engine = MemoryEncryptionEngine(device, geometry, b"k" * 32, MEECache(sets, ways))
    engine.initialize_region()
    return engine


def engine_state(engine):
    """Everything the bulk path must leave as per-access calls would.

    Region bytes (data and all metadata), the on-chip root, the cache's
    entries in LRU order per set with its hit/miss/eviction counts, and
    the engine's stats.
    """
    geometry = engine.geometry
    return {
        "region": engine.device._store.read(geometry.region_base, geometry.total_size),
        "root": engine.tree.root_counter,
        "cache": [list(line.items()) for line in engine.cache._lines.values()],
        "cache_counts": (engine.cache.hits, engine.cache.misses, engine.cache.evictions),
        "stats": vars(engine.stats).copy(),
    }


def outcome(call, *args):
    """Returned data (None for a write) or the SecurityError message."""
    try:
        result = call(*args)
    except SecurityError as error:
        return ("error", str(error))
    return ("data", result[0] if isinstance(result, tuple) else None)


class MEEStateMachine(RuleBasedStateMachine):
    """Stateful test: the MEE behaves like a plain byte store with
    verification, across arbitrary interleavings of reads, writes, bulk
    transfers and power cycles.  A twin engine (same key, its own DRAM)
    takes every bulk transfer as a per-access read or write, and must
    stay in exactly the same state."""

    def __init__(self):
        super().__init__()
        self.mee = make_engine(4096)
        self.twin = make_engine(4096)
        self.shadow = bytearray(4096)

    @rule(offset=st.integers(0, 4000), data=st.binary(min_size=1, max_size=96))
    def write(self, offset, data):
        data = data[: 4096 - offset]
        if not data:
            return
        self.mee.write(offset, data)
        self.twin.write(offset, data)
        self.shadow[offset : offset + len(data)] = data

    @rule(offset=st.integers(0, 4000), length=st.integers(1, 96))
    def read(self, offset, length):
        length = min(length, 4096 - offset)
        got, _latency = self.mee.read(offset, length)
        self.twin.read(offset, length)
        assert got == bytes(self.shadow[offset : offset + length])

    @rule(offset=st.integers(0, 4096), data=st.binary(max_size=700))
    def bulk_write(self, offset, data):
        data = data[: 4096 - offset]
        self.mee.bulk_write(offset, data)
        self.twin.write(offset, data)
        self.shadow[offset : offset + len(data)] = data

    @rule(offset=st.integers(0, 4096), length=st.integers(0, 700))
    def bulk_read(self, offset, length):
        length = min(length, 4096 - offset)
        got, _latency = self.mee.bulk_read(offset, length)
        want, _latency = self.twin.read(offset, length)
        assert got == want == bytes(self.shadow[offset : offset + length])

    @rule()
    def power_cycle(self):
        for engine in (self.mee, self.twin):
            engine.power_on(engine.power_off())

    def _save_both(self, first, data):
        """Bulk-write whole blocks from block ``first`` (the per-access twin
        writes them); they stay pending, as partial blocks would not."""
        offset = first * 64
        data = data[: min(len(data) // 64 * 64, 4096 - offset)]
        self.mee.bulk_write(offset, data)
        self.twin.write(offset, data)
        self.shadow[offset : offset + len(data)] = data
        return offset, data

    @rule(
        first=st.integers(0, 63),
        data=st.binary(min_size=64, max_size=704),
        point=st.integers(0, 2**20),
        length=st.integers(1, 96),
    )
    def read_raw_dram(self, first, data, point, length):
        """Raw DRAM bytes at a random point of the region, right after a
        bulk write, are the per-access twin's."""
        self._save_both(first, data)
        geometry = self.mee.geometry
        address = geometry.region_base + point % geometry.total_size
        length = min(length, geometry.region_base + geometry.total_size - address)
        raw = [engine.device._store.read(address, length) for engine in (self.mee, self.twin)]
        assert raw[0] == raw[1]

    @rule(
        first=st.integers(0, 63),
        data=st.binary(min_size=64, max_size=704),
        pick=st.integers(0, 2**16),
        bit=st.integers(0, 7),
    )
    def tamper_pending(self, first, data, pick, bit):
        """Flip one bit of a just-bulk-written range's data or metadata in
        DRAM: the region bytes are the twin's, and reading the range back
        fails or succeeds as the twin's read does.  The bit is flipped
        back afterwards."""
        from repro.sgx.integrity_tree import ARITY, BLOCK_SIZE

        offset, data = self._save_both(first, data)
        geometry = self.mee.geometry
        first = offset // BLOCK_SIZE
        block = first + pick % ((offset + len(data) - 1) // BLOCK_SIZE - first + 1)
        level = 1 + pick % geometry.levels
        # a sibling under the same level-1 node: its version is under a
        # pending node's MAC
        sibling = min(block // ARITY * ARITY + pick % ARITY, geometry.data_blocks - 1)
        address = [
            geometry.block_address(block) + pick % BLOCK_SIZE,
            geometry.version_address(block) + pick % 8,
            geometry.leaf_mac_address(block) + pick % 8,
            geometry.node_address(level, block // ARITY**level) + pick % 16,
            geometry.version_address(sibling) + pick % 8,
        ][pick % 5]

        def flip():
            for engine in (self.mee, self.twin):
                store = engine.device._store
                (byte,) = store.read(address, 1)
                store.write(address, bytes([byte ^ (1 << bit)]))

        flip()
        region = [
            engine.device._store.read(geometry.region_base, geometry.total_size)
            for engine in (self.mee, self.twin)
        ]
        assert region[0] == region[1]
        got = outcome(self.mee.bulk_read, offset, len(data))
        want = outcome(self.twin.read, offset, len(data))
        flip()
        assert got == want

    @invariant()
    def root_counter_counts_writes(self):
        assert self.mee.tree.root_counter == self.mee.stats.blocks_written

    @invariant()
    def bulk_matches_per_access_twin(self):
        assert engine_state(self.mee) == engine_state(self.twin)


TestMEEStateMachine = MEEStateMachine.TestCase
TestMEEStateMachine.settings = settings(
    max_examples=15, stateful_step_count=20, deadline=None
)


_DIFFERENTIAL_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("bulk_write"), st.integers(0, 4095), st.binary(min_size=1, max_size=700)),
        # a block-aligned save (partial blocks are sealed at once), then a
        # restore of some of its blocks
        st.tuples(
            st.just("save_restore"),
            st.integers(0, 63),
            st.binary(min_size=64, max_size=704),
            st.integers(0, 2**16),
        ),
        st.tuples(st.just("bulk_read"), st.integers(0, 4095), st.integers(1, 700)),
        # a block-aligned restore, often of (part of) an earlier save
        st.tuples(st.just("restore"), st.integers(0, 63), st.integers(1, 11)),
        st.tuples(st.just("write"), st.integers(0, 4095), st.binary(min_size=1, max_size=96)),
        st.tuples(st.just("read"), st.integers(0, 4095), st.integers(1, 96)),
        st.tuples(st.just("raw_read"), st.integers(0, 2**20), st.integers(1, 96)),
        st.tuples(st.just("tamper"), st.integers(0, 2**20), st.integers(0, 7)),
        st.tuples(st.just("mee_power_cycle")),
        # power the MEE back on with the state it exported at start-up
        st.tuples(st.just("mee_replay")),
        st.tuples(st.just("dram_power_loss")),
        st.tuples(st.just("initialize")),
    ),
    max_size=25,
)


def run_ops(engine, ops, settle):
    """Apply ``ops`` to ``engine``, calling ``settle()`` after each engine call.

    Returns every result: data and latency, or the error's type and message.
    """
    from repro.sgx.integrity_tree import BLOCK_SIZE

    geometry = engine.geometry
    store = engine.device._store
    end = geometry.region_base + geometry.total_size

    def call(method, *args):
        try:
            return getattr(engine, method)(*args)
        except (SecurityError, MemoryFault) as error:
            return (type(error).__name__, str(error))
        finally:
            settle()

    initial = engine.export_state()
    results = []
    for kind, *args in ops:
        if kind in ("bulk_write", "write"):
            offset, data = args
            results.append(call(kind, offset, data[: 4096 - offset]))
        elif kind in ("bulk_read", "read"):
            offset, length = args
            results.append(call(kind, offset, min(length, 4096 - offset)))
        elif kind == "save_restore":
            first, data, pick = args
            blocks = min(len(data) // BLOCK_SIZE, 64 - first)
            results.append(call("bulk_write", first * BLOCK_SIZE, data[: blocks * BLOCK_SIZE]))
            start = first + pick % blocks
            count = 1 + pick // blocks % (first + blocks - start)
            results.append(call("bulk_read", start * BLOCK_SIZE, count * BLOCK_SIZE))
        elif kind == "restore":
            first, count = args
            count = min(count, 64 - first)
            results.append(call("bulk_read", first * BLOCK_SIZE, count * BLOCK_SIZE))
        elif kind == "raw_read":
            point, length = args
            address = geometry.region_base + point % geometry.total_size
            results.append(store.read(address, min(length, end - address)))
        elif kind == "tamper":
            point, bit = args
            address = geometry.region_base + point % geometry.total_size
            (byte,) = store.read(address, 1)
            store.write(address, bytes([byte ^ (1 << bit)]))
        elif kind == "mee_power_cycle":
            engine.power_on(engine.power_off())
        elif kind == "mee_replay":
            engine.power_off()
            engine.power_on(initial)
        elif kind == "dram_power_loss":
            engine.device.power_off()
            engine.device.power_on()
        else:
            results.append(call("initialize_region"))
    return results


def lazy_state(engine):
    """:func:`engine_state` plus the device and metadata traffic counters."""
    state = engine_state(engine)
    state["traffic"] = (
        engine.device.bytes_read,
        engine.device.bytes_written,
        engine.tree.metadata_accesses,
        engine.tree.metadata_latency_ps,
    )
    return state


class TestLazySealingDifferential:
    """Bulk writes sealed whenever something first observes them equal bulk
    writes sealed at once, over generated sequences."""

    def test_deferred_sealing_equals_immediate_sealing(self):
        """One engine seals only when an access needs the bytes; the other
        is settled after every call, so nothing stays pending.  Compared at
        the end of each sequence: every result (data, latency or error),
        region bytes, root, cache lines and counts, stats, and the device
        and metadata traffic."""
        served = []

        @given(ops=_DIFFERENTIAL_OPS, sets=st.sampled_from([1, 4, 32]))
        @settings(max_examples=100, deadline=None)
        def check(ops, sets):
            lazy = make_engine(4096, sets=sets)
            eager = make_engine(4096, sets=sets)
            tree = lazy.tree
            materialized = []
            seal = tree.materialize

            def spy():
                materialized.append(1)
                seal()

            tree.materialize = spy
            read = lazy.bulk_read

            def bulk_read(offset, length):
                from repro.sgx.integrity_tree import BLOCK_SIZE

                held = tree.pending_plaintext(offset // BLOCK_SIZE, -(-length // BLOCK_SIZE))
                before = len(materialized)
                result = read(offset, length)
                if held is not None and len(materialized) == before:
                    served.append(1)
                return result

            lazy.bulk_read = bulk_read
            got = run_ops(lazy, ops, settle=lambda: None)
            want = run_ops(eager, ops, settle=eager.tree.materialize)
            assert got == want
            assert lazy_state(lazy) == lazy_state(eager)

        check()
        assert served, "no generated sequence served a bulk read from a pending write"


class TestMEEBulkDifferential:
    """The batched bulk path equals per-access calls, tampered DRAM included."""

    @pytest.mark.parametrize(
        "zone", [None, "data", "versions", "macs", "nodes", "replay"]
    )
    @given(
        sets=st.sampled_from([4, 32, 64]),
        ways=st.sampled_from([1, 2, 8]),
        warm=st.booleans(),
        bulk_write=st.booleans(),
        offset=st.integers(0, 8191),
        length=st.integers(1, 1500),
        pick=st.integers(0, 2**16),
        bit=st.integers(0, 7),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_bulk_equals_per_access(
        self, zone, sets, ways, warm, bulk_write, offset, length, pick, bit, seed
    ):
        """Same data or SecurityError message, and same engine state, after
        one bit flipped in the data or metadata of a covered block, or
        after the whole region is rolled back one write (replay)."""
        import random

        from repro.sgx.integrity_tree import ARITY, BLOCK_SIZE

        length = min(length, 8192 - offset)
        rng = random.Random(seed)
        history = [(rng.randrange(8192 - 256), rng.randbytes(256)) for _ in range(3)]
        data = rng.randbytes(length)
        engines = [make_engine(8192, sets=sets, ways=ways) for _ in range(2)]
        geometry = engines[0].geometry
        first = offset // BLOCK_SIZE
        block = first + pick % ((offset + length - 1) // BLOCK_SIZE - first + 1)
        level = 1 + pick % geometry.levels
        flipped = {
            "data": geometry.block_address(block) + pick % BLOCK_SIZE,
            "versions": geometry.version_address(block) + pick % 8,
            "macs": geometry.leaf_mac_address(block) + pick % 8,
            "nodes": geometry.node_address(level, block // ARITY**level) + pick % 16,
        }
        for engine in engines:
            store = engine.device._store
            for at, blob in history:
                snapshot = store.read(geometry.region_base, geometry.total_size)
                engine.write(at, blob)
            engine.power_on(engine.power_off())  # cold cache
            if warm:
                engine.read(offset, length)
            if zone == "replay":
                store.write(geometry.region_base, snapshot)
            elif zone is not None:
                (byte,) = store.read(flipped[zone], 1)
                store.write(flipped[zone], bytes([byte ^ (1 << bit)]))
        bulk, twin = engines
        if bulk_write:
            got = outcome(bulk.bulk_write, offset, data)
            want = outcome(twin.write, offset, data)
        else:
            got = outcome(bulk.bulk_read, offset, length)
            want = outcome(twin.read, offset, length)
        assert got == want
        assert engine_state(bulk) == engine_state(twin)


class TestKernelOrderingProperty:
    @given(
        delays=st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=60)
    )
    @settings(max_examples=40, deadline=None)
    def test_events_always_fire_in_timestamp_then_fifo_order(self, delays):
        from repro.sim.kernel import Kernel

        kernel = Kernel()
        fired = []
        for index, delay in enumerate(delays):
            kernel.schedule(delay, lambda i=index, d=delay: fired.append((d, i)))
        kernel.run()
        # sorted by (time, insertion order) == stable sort by time
        assert fired == sorted(fired)

    @given(
        delays=st.lists(st.integers(min_value=1, max_value=10**6), min_size=2, max_size=30),
        cancel_every=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_cancelled_events_never_fire(self, delays, cancel_every):
        from repro.sim.kernel import Kernel

        kernel = Kernel()
        fired = []
        events = [
            kernel.schedule(delay, lambda i=index: fired.append(i))
            for index, delay in enumerate(delays)
        ]
        cancelled = {
            index for index in range(len(events)) if index % cancel_every == 0
        }
        for index in cancelled:
            events[index].cancel()
        kernel.run()
        assert cancelled.isdisjoint(fired)
        assert len(fired) == len(delays) - len(cancelled)


class TestPowerTreeConservation:
    @given(
        loads=st.lists(st.floats(min_value=0, max_value=0.1), min_size=1, max_size=12)
    )
    @settings(max_examples=40, deadline=None)
    def test_breakdown_sums_to_platform_power(self, loads):
        from repro.power.tree import PowerTree
        from repro.sim.kernel import Kernel

        tree = PowerTree(Kernel())
        rail = tree.new_rail("r", 1.0)
        domain = rail.new_domain("d")
        for index, load in enumerate(loads):
            domain.new_component(f"c{index}", load)
        breakdown = tree.attributed_breakdown()
        assert sum(breakdown.values()) == pytest.approx(tree.platform_power())


def uncached_rail_watts(tree):
    """Battery-side watts per rail, recomputed without the rail memo."""
    return [rail.regulator.input_power(rail.load_watts()) for rail in tree.rails]


def uncached_breakdown(tree):
    """``attributed_breakdown`` with every rail re-evaluated from scratch."""
    from unittest import mock

    from repro.power.domain import Rail

    def recompute(rail):
        return rail.regulator.input_power(rail.load_watts())

    with mock.patch.object(Rail, "input_power", recompute):
        return tree.attributed_breakdown()


_watts = st.floats(min_value=0.0, max_value=0.5)
_gate_kinds = st.sampled_from([None, "epg", "fet"])
_rail_specs = st.lists(
    st.tuples(
        st.lists(
            st.tuples(st.floats(1e-4, 10.0), st.floats(0.3, 1.0)), min_size=1, max_size=3
        ),
        st.floats(0.0, 0.01),
        st.lists(
            st.tuples(_gate_kinds, st.lists(st.tuples(_watts, _watts), max_size=3)),
            max_size=3,
        ),
    ),
    min_size=1,
    max_size=4,
)


def make_gate(kind, name, closed=True):
    from repro.power.gates import BoardFETGate, EmbeddedPowerGate

    if kind is None:
        return None
    return (EmbeddedPowerGate if kind == "epg" else BoardFETGate)(name, closed)


class PowerTreeOracle(RuleBasedStateMachine):
    """Generated power trees under generated mutation sequences.

    After every step the tree's answers (``platform_power``,
    ``attributed_breakdown``, and the meter and trace values of the last
    propagation) must equal an uncached recomputation from the leaves,
    bit for bit.  A mutation that skips the rail notification leaves a
    stale rail memo behind and fails here.
    """

    @initialize(spec=_rail_specs)
    def build(self, spec):
        from repro.power.regulator import EfficiencyCurve
        from repro.power.tree import PowerTree
        from repro.sim.kernel import Kernel
        from repro.sim.trace import TraceRecorder

        self.tree = PowerTree(Kernel(), EnergyMeter(), TraceRecorder())
        self.domains = []
        self.components = []
        self.depth = 0
        for r, (points, quiescent, domains) in enumerate(spec):
            rail = self.tree.new_rail(f"r{r}", 1.0, EfficiencyCurve(points), quiescent)
            for d, (gate, loads) in enumerate(domains):
                domain = rail.new_domain(f"r{r}.d{d}", make_gate(gate, f"g{r}.{d}"))
                self.domains.append((rail, domain))
                for c, (leakage, dynamic) in enumerate(loads):
                    component = domain.new_component(f"r{r}.d{d}.c{c}", leakage, dynamic)
                    self.components.append((rail, component))

    def _live(self, pool, index):
        """The indexed (rail, item), or None when the pool is empty or its
        rail's regulator is off (loading a dead rail is a sequencing
        fault the flows never commit)."""
        if not pool:
            return None
        rail, item = pool[index % len(pool)]
        return item if rail.regulator.enabled else None

    @rule(index=st.integers(0, 99), leakage=_watts, dynamic=_watts)
    def set_power(self, index, leakage, dynamic):
        component = self._live(self.components, index)
        if component is not None:
            component.set_power(leakage, dynamic)

    @rule(index=st.integers(0, 99), watts=_watts)
    def set_leakage(self, index, watts):
        component = self._live(self.components, index)
        if component is not None:
            component.set_leakage(watts)

    @rule(index=st.integers(0, 99), watts=_watts)
    def set_dynamic(self, index, watts):
        component = self._live(self.components, index)
        if component is not None:
            component.set_dynamic(watts)

    @rule(index=st.integers(0, 99))
    def power_off(self, index):
        domain = self._live(self.domains, index)
        if domain is not None:
            domain.power_off()

    @rule(index=st.integers(0, 99))
    def power_on(self, index):
        domain = self._live(self.domains, index)
        if domain is not None:
            domain.power_on()

    @rule(index=st.integers(0, 99), kind=_gate_kinds)
    def swap_gate(self, index, kind):
        domain = self._live(self.domains, index)
        if domain is not None:
            domain.gate = make_gate(kind, f"swap{index}", closed=domain.enabled)

    @rule(index=st.integers(0, 99))
    def turn_off(self, index):
        from repro.errors import PowerError

        rail = self.tree.rails[index % len(self.tree.rails)]
        try:
            rail.turn_off()
        except PowerError:
            assert rail.regulator.enabled  # refused before any change

    @rule(index=st.integers(0, 99))
    def turn_on(self, index):
        self.tree.rails[index % len(self.tree.rails)].turn_on()

    @rule()
    def suspend(self):
        self.tree.suspend_updates()
        self.depth += 1

    @rule()
    def resume(self):
        self.tree.resume_updates()
        self.depth = max(self.depth - 1, 0)

    @rule(ps=st.integers(1, 10**12))
    def advance(self, ps):
        self.tree.kernel.advance_to(self.tree.kernel.now + ps)

    @invariant()
    def queries_match_recomputation(self):
        rail_watts = uncached_rail_watts(self.tree)
        assert self.tree.platform_power() == sum(rail_watts)
        assert [rail.input_power() for rail in self.tree.rails] == rail_watts
        assert self.tree.attributed_breakdown() == uncached_breakdown(self.tree)

    @invariant()
    def last_propagation_matches_recomputation(self):
        if self.depth:
            return  # suspended: the last record predates the batch
        rail_watts = uncached_rail_watts(self.tree)
        trace = self.tree.trace
        assert trace.last("platform").value == sum(rail_watts)
        assert self.tree.meter.power("platform") == sum(rail_watts)
        for rail, watts in zip(self.tree.rails, rail_watts):
            assert trace.last(f"rail:{rail.name}").value == watts


TestPowerTreeOracle = PowerTreeOracle.TestCase
TestPowerTreeOracle.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


class TestCyclePriceProperties:
    @given(
        power_steps=st.lists(
            st.tuples(st.integers(min_value=1, max_value=10**9), st.floats(0, 10.0)),
            min_size=1,
            max_size=20,
        ),
        state_steps=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=10**9),
                st.sampled_from(["active", "entry", "drips", "exit"]),
            ),
            min_size=1,
            max_size=20,
        ),
        bounds=st.tuples(
            st.integers(min_value=0, max_value=2 * 10**10),
            st.integers(min_value=0, max_value=2 * 10**10),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_price_matches_energy_by_state_bit_for_bit(
        self, power_steps, state_steps, bounds
    ):
        from hypothesis import assume

        from repro.measure.residency import (
            CyclePrice,
            energy_by_state,
            merge_state_power,
            residency_report,
        )
        from repro.sim.trace import TraceRecorder

        start_ps, end_ps = sorted(bounds)
        assume(end_ps > start_ps)
        trace = TraceRecorder()
        for channel, steps in (("platform", power_steps), ("state", state_steps)):
            now = 0
            for duration, value in steps:
                trace.record(now, channel, value)
                now += duration
        price = CyclePrice.of(merge_state_power(trace, start_ps, end_ps))
        rounded = {state: float(joules) for state, joules in price.energy_j.items()}
        assert rounded == energy_by_state(trace, start_ps, end_ps)
        assert price.dwell_ps == residency_report(trace, start_ps, end_ps).dwell_ps
        assert price * 3 == price + price + price
