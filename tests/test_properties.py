"""Cross-cutting property-based tests on core invariants."""

import math

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from mee_generator import FIELDS, KINDS, Differential, check_cases, generated_case

from repro.clocks.clock import DerivedClock
from repro.clocks.crystal import CrystalOscillator
from repro.measure.residency import integrate_joules
from repro.sim.trace import TraceRecorder
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
        """Trace energy == sum(power * duration) for any step sequence."""
        trace = TraceRecorder()
        now = 0
        expected = 0.0
        for duration, power in steps:
            trace.record(now, "x", power)
            now += duration
            expected += power * duration / PICOSECONDS_PER_SECOND
        energy = integrate_joules(trace, "x", 0, now)
        assert energy == pytest.approx(expected, rel=1e-12, abs=1e-15)

    @given(
        st.lists(st.floats(min_value=0, max_value=5.0), min_size=2, max_size=10),
        st.integers(min_value=1, max_value=10**10),
    )
    @settings(max_examples=30, deadline=None)
    def test_total_equals_sum_of_channels(self, powers, window):
        """The platform channel's energy is the sum of the rail channels'."""
        from repro.power.tree import PowerTree
        from repro.sim.kernel import Kernel

        trace = TraceRecorder()
        tree = PowerTree(Kernel(), trace)
        for index, power in enumerate(powers):
            tree.new_rail(f"ch{index}", 1.0).new_domain(f"d{index}").new_component(
                f"c{index}", power
            )
        total = integrate_joules(trace, "platform", 0, window)
        parts = sum(
            integrate_joules(trace, f"rail:ch{index}", 0, window)
            for index in range(len(powers))
        )
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


class MEEStateMachine(RuleBasedStateMachine):
    """Stateful test over the one MEE generator (:mod:`mee_generator`).

    Hypothesis draws a case, then which op kind comes next; the
    generator expands each kind into engine steps, and every step runs in
    lockstep on the shipped engine, its per-access twin (on DRAM) and the
    eager reference.  After every step they agree (data, also against a
    shadow copy, errors, state, root = ``blocks_written``), and when the
    run ends, on every stored page and the device log.
    """

    differential = None

    @initialize(seed=st.integers(0, 2**16))
    def case(self, seed):
        case, self.planner = generated_case(seed, steps=0)
        self.differential = Differential(seed, *case)

    @rule(kind=st.sampled_from(sorted(KINDS)))
    def step(self, kind):
        planner = self.planner
        start = planner.floor = len(planner.plan)  # a snapshot is never taken in the past
        planner.draw(kind=kind)
        for step in planner.plan[start:]:
            self.differential.step(step)

    def teardown(self):
        if self.differential is not None:
            self.differential.finish()


TestMEEStateMachine = MEEStateMachine.TestCase
TestMEEStateMachine.settings = settings(
    max_examples=6, stateful_step_count=10, deadline=None
)

#: Op kinds around bulk saves and restores, for the sealing differential.
SAVES = {
    "save": 8, "restore": 6, "save_restore": 8, "overlap": 5, "read": 6, "write": 3,
    "partial": 2, "raw": 2, "tamper": 3, "cycle": 2, "startup": 1, "power_loss": 1,
    "initialize": 1,
}


class TestLazySealingDifferential:
    """Bulk writes sealed whenever something first observes them equal the
    reference, which stores every byte when it is written."""

    CASES = 6

    def test_deferred_sealing_equals_immediate_sealing(self):
        """Generated save-heavy cases: every result (data, latency or error),
        the device log, region bytes, root, cache lines and counts, stats,
        and the device and metadata traffic match the eager reference."""
        seen, _raised = check_cases(range(2000, 2000 + self.CASES), kinds=SAVES)
        assert ("served",) in seen, "no generated case served a bulk read from a pending save"
        assert ("op", "save over part of a pending save") in seen


#: Op kinds of a bulk-equals-per-access case, before its tamper or replay.
TRANSFERS = {"save": 6, "restore": 6, "save_restore": 4, "overlap": 2, "read": 4, "write": 4,
             "cycle": 2}
#: The tamper fields of each zone of the bulk differential.
ZONES = {"data": ("data",), "versions": ("version",), "macs": ("leaf_mac",),
         "nodes": ("node_counter", "node_mac")}


class TestMEEBulkDifferential:
    """The batched bulk path equals per-access calls, tampered DRAM included."""

    CASES = 2

    @pytest.mark.parametrize(
        "zone", [None, "data", "versions", "macs", "nodes", "replay"]
    )
    def test_bulk_equals_per_access(self, zone):
        """Generated DRAM cases: the per-access twin returns the same data or
        error and leaves the same root, cache, stats and pages as each bulk
        transfer, after bits flipped in the ``zone`` field of a block, or
        after the whole region is rolled back to a snapshot (replay)."""
        kinds = dict(TRANSFERS)
        if zone == "replay":
            kinds["replay"] = 3
        elif zone is not None:
            kinds["tamper"] = 6
        fields = ZONES.get(zone, FIELDS)
        first = 3000 + 100 * [None, "data", "versions", "macs", "nodes", "replay"].index(zone)
        seen, raised = check_cases(
            range(first, first + self.CASES), kinds=kinds, fields=fields, pcm=0
        )
        labels = ["replay"] if zone == "replay" else fields if zone else [None]
        assert {("twin", label) for label in labels} <= seen
        if zone in ZONES:
            assert any(path == "bulk" and name == "SecurityError" for path, name, _ in raised)


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


def uncached_domain_watts(domain):
    """A domain's load recomputed from its components, without the domain memo."""
    nominal = sum(component.power_watts for component in domain.components)
    if domain.gate is not None:
        return domain.gate.delivered_power(nominal)
    return nominal if domain.enabled else 0.0


def uncached_rail_watts(tree):
    """Battery-side watts per rail, recomputed without the domain or rail memos."""
    return [
        rail.regulator.input_power(sum(uncached_domain_watts(d) for d in rail.domains))
        for rail in tree.rails
    ]


def uncached_breakdown(tree):
    """``attributed_breakdown`` with every domain and rail re-evaluated from scratch."""
    from unittest import mock

    from repro.power.domain import PowerDomain, Rail

    def recompute(rail):
        return rail.regulator.input_power(rail.load_watts())

    with mock.patch.object(PowerDomain, "load_watts", uncached_domain_watts), \
            mock.patch.object(Rail, "input_power", recompute):
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

    After every step the tree's answers (every domain's ``load_watts``,
    ``platform_power``, ``attributed_breakdown``, and the trace records
    of the last propagation) must equal an uncached recomputation from
    the leaves, bit for bit, suspended or not.  A mutation that skips a
    notification leaves a stale domain, rail or platform memo behind and
    fails here.
    """

    @initialize(spec=_rail_specs)
    def build(self, spec):
        from repro.power.regulator import EfficiencyCurve
        from repro.power.tree import PowerTree
        from repro.sim.kernel import Kernel

        self.tree = PowerTree(Kernel(), TraceRecorder())
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

    @rule(index=st.integers(0, 99), first=_watts, pinned=_watts)
    def pin_total(self, index, first, pinned):
        """``SkylakePlatform.set_total_power`` inside a batch: change a
        component, read the platform total while suspended, then pin it."""
        component = self._live(self.components, index)
        if component is None:
            return
        with self.tree.batch():
            component.set_power(first)
            self.queries_match_recomputation()
            base = self.tree.platform_power() - component.power_watts
            component.set_power(max(0.0, pinned - base))
            self.queries_match_recomputation()

    @rule(ps=st.integers(1, 10**12))
    def advance(self, ps):
        self.tree.kernel.advance_to(self.tree.kernel.now + ps)

    @invariant()
    def queries_match_recomputation(self):
        for _rail, domain in self.domains:
            assert domain.load_watts() == uncached_domain_watts(domain)
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
            clipped_intervals,
            merge_state_power,
            residency_report,
        )

        start_ps, end_ps = sorted(bounds)
        assume(end_ps > start_ps)
        trace = TraceRecorder()
        for channel, steps in (("platform", power_steps), ("state", state_steps)):
            now = 0
            for duration, value in steps:
                trace.record(now, channel, value)
                now += duration
        segments = merge_state_power(trace, start_ps, end_ps)
        price = CyclePrice.of(segments)
        # references: a per-state fsum of the segment products, and the
        # state channel's own dwell walk
        products = {}
        for lo, hi, state, watts in segments:
            products.setdefault(state, []).append(
                watts * ((hi - lo) / PICOSECONDS_PER_SECOND)
            )
        energies = {state: math.fsum(values) for state, values in products.items()}
        dwell = {}
        for lo, hi, state in clipped_intervals(trace, "state", start_ps, end_ps):
            dwell[state] = dwell.get(state, 0) + (hi - lo)
        assert price.rounded_j() == energies
        assert price.dwell_ps == dwell
        report = residency_report(trace, start_ps, end_ps)
        assert (report.dwell_ps, report.energy_j) == (dwell, energies)
        assert price * 3 == price + price + price

    @given(
        segments=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**13),
                st.integers(min_value=0, max_value=10**13),
                st.tuples(
                    st.sampled_from(["board", "compute"]),
                    st.sampled_from(["active", "drips"]),
                    st.sampled_from(["wake:timer", "steady-idle"]),
                ),
                st.one_of(
                    st.floats(0, 10.0),
                    st.just(0.0),
                    # subnormal watts: products underflow to zero or stay subnormal
                    st.floats(0, 2.2250738585072014e-308),
                ),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_of_sums_any_key_exactly(self, segments):
        from fractions import Fraction

        from repro.measure.residency import CyclePrice

        segments = [(lo, lo + span, key, watts) for lo, span, key, watts in segments]
        price = CyclePrice.of(segments)
        keys = list(dict.fromkeys(key for _lo, _hi, key, _watts in segments))
        assert list(price.dwell_ps) == list(price.energy_j) == keys
        for key in keys:
            products = [
                watts * ((hi - lo) / PICOSECONDS_PER_SECOND)
                for lo, hi, k, watts in segments
                if k == key
            ]
            assert price.energy_j[key] == sum(map(Fraction, products))
            assert price.rounded_j()[key] == math.fsum(products)
            assert price.dwell_ps[key] == sum(
                hi - lo for lo, hi, k, _watts in segments if k == key
            )
