"""The four end-to-end workloads and their correctness checks.

Every workload is a closed loop: one caller runs one operation at a
time.  :func:`setup` turns ``--seed`` into the library's inputs (context
images, workload seeds, access sequences); the library never sees the
seed itself.  A workload's ``ops`` are one *pass*, a fixed amount of
work of under a second made of ops of at most ~100 ms, so that a
measured run repeats every op many times.  Each op returns its
simulated output; ``check`` turns that output into the payload whose
digest is compared against ``expected.json`` and lists any golden,
sanity or shadow-copy failure.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

NAMES = (
    "context-save-restore",
    "standby-dark",
    "macro-projection",
    "mee-random-access",
)

#: One pass per size: the full benchmark and a tiny size for the tests.
SIZES = ("full", "tiny")

Check = Callable[[int, Any], Tuple[Any, List[str]]]


@dataclasses.dataclass
class Workload:
    name: str
    #: One pass; op ``i`` is compared against digest ``i``.
    ops: List[Callable[[], Any]]
    labels: List[str]
    check: Check
    #: Part of the pass's host time but not an op (MEE region set-up).
    begin_pass: Callable[[], None] = lambda: None
    #: A last untimed op run once per process; returns ``(payload,
    #: problems)`` like ``check``, and its payload is digest ``len(ops)``.
    final_op: Optional[Callable[[], Tuple[Any, List[str]]]] = None
    #: |measured - paper| / tolerance of every golden checked.
    paper_err: List[float] = dataclasses.field(default_factory=list)


# --- canonical digests ---------------------------------------------------------


def canonical(value: Any) -> Any:
    """JSON-ready form of a simulated output; floats keep every digit."""
    if isinstance(value, float):
        return repr(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (bytes, bytearray)):
        return value.hex()
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(canonical(key)): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(payload: Any) -> str:
    text = json.dumps(canonical(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- paper goldens ---------------------------------------------------------------------


def golden_error(golden, measured: Optional[float]) -> float:
    """|measured - paper| in units of the golden's tolerance (<= 1 passes)."""
    if measured is None:
        return math.inf
    gap = {
        "relative": abs(measured - golden.paper),
        "ceiling": max(0.0, measured - golden.paper),
        "floor": max(0.0, golden.paper - measured),
    }.get(golden.kind, abs(measured - golden.paper))
    scale = golden.tolerance * (abs(golden.paper) if golden.kind == "relative" else 1.0)
    if scale == 0:
        return 0.0 if gap == 0 else math.inf
    return gap / scale


#: The paper drivers whose goldens a run checks once, untimed: every one
#: that finishes in about a second.  ``latency`` (Sec. 6.3) saves and
#: restores the 200 KB context through the MEE, the path the
#: context-save-restore ops time.  The fig6a-fig6d sweeps take 4-12 s
#: each and are left to the tier-1 golden tests.
PAPER_DRIVERS = ("fig1b", "fig2", "latency", "calibration", "table1")


def _paper_goldens(workload: Workload, size: str) -> Tuple[Any, List[str]]:
    """Run :data:`PAPER_DRIVERS` and check every golden of each."""
    from repro.core import experiments

    payload, problems = {}, []
    for name in PAPER_DRIVERS:
        if size == "tiny" and name == "latency":
            continue
        spec = experiments.EXPERIMENTS[name]
        result = spec.runner()
        values = spec.metrics(result)
        for golden in spec.goldens:
            error = golden_error(golden, values.get(golden.key))
            workload.paper_err.append(error)
            if not golden.within(values.get(golden.key, math.nan)):
                problems.append(f"{name}: golden {golden.key} off by {error:.2f} tolerances")
        payload[name] = {"result": result, "metrics": values}
    return payload, problems


# --- context-save-restore ----------------------------------------------------------------


def _context_save_restore(seed: int, size: str) -> Workload:
    from repro.core.techniques import TechniqueSet
    from repro.system.skylake import SkylakePlatform

    # the CTX-SGX-DRAM platform: both context FSMs write through the MEE
    platform = SkylakePlatform(techniques=TechniqueSet.ctx_sgx_dram_only())
    platform.boot()
    agent = platform.system_agent
    # eight 16 KB images (~53 ms each to save and restore): 128 KB a pass,
    # against a 200 KB context, alternating the SA and LLC FSMs
    count, length = (8, 16 * 1024) if size == "full" else (2, 1024)
    rng = random.Random(f"context-save-restore:{seed}")
    images = [rng.randbytes(length) for _ in range(count)]
    fsms = ["sa" if index % 2 == 0 else "llc" for index in range(count)]

    def op(fsm: str, image: bytes) -> Callable[[], Any]:
        def run():
            # looked up per call, so the layer tracer's wrapper is seen
            save_latency = getattr(agent, f"{fsm}_fsm_flush")(image)
            data, restore_latency = getattr(agent, f"{fsm}_fsm_restore")(len(image))
            return save_latency, data, restore_latency

        return run

    def check(index: int, output) -> Tuple[Any, List[str]]:
        save_latency, data, restore_latency = output
        problems = []
        if data != images[index]:
            problems.append(f"{fsms[index]}-{index}: restored context differs from the saved one")
        if save_latency <= 0 or restore_latency <= 0:
            problems.append(f"{fsms[index]}-{index}: latencies {save_latency}, {restore_latency}")
        return {"save_ps": save_latency, "restore_ps": restore_latency, "data": data}, problems

    workload = Workload(
        name="context-save-restore",
        ops=[op(fsm, image) for fsm, image in zip(fsms, images)],
        labels=[f"{fsm}-{index}" for index, fsm in enumerate(fsms)],
        check=check,
        final_op=lambda: _paper_goldens(workload, size),
    )
    return workload


# --- standby workloads ------------------------------------------------------------------


def _capture_reports() -> List[Any]:
    """Keep every residency report the standby runner builds.

    ``measure`` digests its ``StandbyResult`` down to a measurement; the
    full report is needed for the Equation-1 check.  The runner looks
    both report functions up by name, so rebinding them here suffices.
    """
    from repro.workloads import standby

    captured: List[Any] = []
    for name in ("residency_report", "macro_residency_report"):
        original = getattr(standby, name)

        def capture(*args, _original=original, **kwargs):
            report = _original(*args, **kwargs)
            captured.append(report)
            return report

        setattr(standby, name, capture)
    return captured


def _check_standby(label: str, output) -> Tuple[Any, List[str]]:
    measurement, report = output
    problems = []
    for state in report.dwell_ps:
        residency = report.residency(state)
        if not 0.0 < residency <= 1.0:
            problems.append(f"{label}: {state} residency {residency!r} outside (0, 1]")
    if not 0.0 < measurement.drips_residency <= 1.0:
        problems.append(f"{label}: DRIPS residency {measurement.drips_residency!r}")
    total = report.total_average_power()
    terms = math.fsum(report.equation1_terms().values())
    if abs(terms - total) > 1e-9 * abs(total):
        problems.append(f"{label}: Equation-1 terms {terms!r} != average {total!r}")
    if measurement.average_power_w != total:
        problems.append(f"{label}: measured average {measurement.average_power_w!r} != {total!r}")
    return {"measurement": measurement, "report": report}, problems


def _standby_ops(
    runs: List[Tuple[str, Any, int]], cycles: int, macro: bool
) -> Tuple[List[Callable[[], Any]], List[str]]:
    from repro.config import StandbyWorkloadConfig
    from repro.core.odrips import ODRIPSController

    captured = _capture_reports()

    def op(techniques, workload_seed: int) -> Callable[[], Any]:
        def run():
            captured.clear()
            measurement = ODRIPSController(
                techniques, workload=StandbyWorkloadConfig(seed=workload_seed)
            ).measure(cycles=cycles, external_wakes=True, macro=macro)
            return measurement, captured[-1]

        return run

    ops = [op(techniques, workload_seed) for _, techniques, workload_seed in runs]
    labels = [f"{label}@{workload_seed}" for label, _, workload_seed in runs]
    return ops, labels


def _standby_dark(seed: int, size: str) -> Workload:
    from repro.core.techniques import TechniqueSet

    # context stays out of the MEE in all four: the sgx layer does no work
    sets = [
        ("baseline", TechniqueSet.baseline()),
        ("wake-up-off", TechniqueSet.wake_up_off_only()),
        ("aon-io-gate", TechniqueSet.with_io_gating()),
        ("odrips-mram", TechniqueSet.odrips_mram()),
    ]
    # ~60 ms an op, with one external wake in the middle of the run
    count, cycles, wakes, gap = (3, 10, 1, 3) if size == "full" else (1, 3, 0, 0)
    runs = [
        (label, techniques, workload_seed)
        for workload_seed in _stratified_seeds(seed, "standby-dark", count, cycles, wakes, gap)
        for label, techniques in sets
    ]
    ops, labels = _standby_ops(runs, cycles, macro=False)
    return Workload(
        name="standby-dark",
        ops=ops,
        labels=labels,
        check=lambda index, output: _check_standby(labels[index], output),
    )


#: External wakes per simulated day (the binomial mode at 4 wakes/h).
WAKES_PER_DAY = 85
#: Earliest a stratified wake may fire into its idle interval.  A wake
#: drawn in the first second lands before the platform settles in DRIPS
#: and costs the run extra exact work.
MIN_WAKE_DELAY_S = 2.0


def _stratified_seeds(
    seed: int, label: str, count: int, cycles: int, wakes: int, gap: int
) -> List[int]:
    """``count`` workload seeds whose runs do the same amount of work.

    An exact cycle with an external wake costs more than a timer cycle,
    and the macro engine's host time is mostly the exact fallback cycles
    around each wake, which depend on where the wakes fall.  So a seed
    qualifies when its ``cycles``-cycle run draws exactly ``wakes`` wakes,
    each at least :data:`MIN_WAKE_DELAY_S` into its idle interval and at
    least ``gap`` cycles from the next wake and from either end.
    """
    rng = random.Random(f"{label}:{seed}")
    workload_seeds: List[int] = []
    while len(workload_seeds) < count:
        candidate = rng.randrange(2**31)
        draws = wake_draws(candidate, cycles)
        points = [0] + [cycle for cycle, _ in draws] + [cycles]
        if (
            len(draws) == wakes
            and all(delay_s >= MIN_WAKE_DELAY_S for _, delay_s in draws)
            and all(later - earlier >= gap for earlier, later in zip(points, points[1:]))
        ):
            workload_seeds.append(candidate)
    return workload_seeds


def wake_draws(workload_seed: int, cycles: int) -> List[Tuple[int, float]]:
    """``(cycle, delay_s)`` of each external wake a run draws for ``workload_seed``.

    Mirrors the runner's RNG use with the default workload: one
    exponential inter-wake draw per cycle (``cycles + 1`` in a run),
    firing when it falls inside 90 % of the 30 s idle interval.
    """
    from repro.config import StandbyWorkloadConfig

    config = StandbyWorkloadConfig()
    rate_per_s = config.external_wake_rate_per_hour / 3600.0
    limit_s = config.idle_interval_s * 0.9
    rng = random.Random(workload_seed)
    draws = [(cycle, rng.expovariate(rate_per_s)) for cycle in range(cycles + 1)]
    return [(cycle, delay_s) for cycle, delay_s in draws if delay_s < limit_s]


def _macro_projection(seed: int, size: str) -> Workload:
    from repro.core.techniques import TechniqueSet

    # one simulated hour (120 cycles, 3 wakes) per op, ~90 ms
    count, cycles, gap = (3, 120, 15) if size == "full" else (1, 60, 5)
    wakes = WAKES_PER_DAY * cycles // 2880
    runs = [
        (label, techniques, workload_seed)
        for workload_seed in _stratified_seeds(
            seed, "macro-projection", count, cycles, wakes, gap
        )
        for label, techniques in (
            ("baseline", TechniqueSet.baseline()),
            ("odrips-mram", TechniqueSet.odrips_mram()),
        )
    ]
    ops, labels = _standby_ops(runs, cycles, macro=True)

    def check(index: int, output) -> Tuple[Any, List[str]]:
        payload, problems = _check_standby(labels[index], output)
        macro = output[0].macro
        if not macro or macro["cycles_compiled"] <= 0:
            problems.append(f"{labels[index]}: macro engine compiled no cycle ({macro})")
        return payload, problems

    return Workload(name="macro-projection", ops=ops, labels=labels, check=check)


# --- mee-random-access ------------------------------------------------------------------


def _mee_random_access(seed: int, size: str) -> Workload:
    from repro.core.techniques import TechniqueSet
    from repro.errors import SecurityError
    from repro.sgx.integrity_tree import BLOCK_SIZE
    from repro.system.skylake import SkylakePlatform

    # the platform's own engine: 200 KB context geometry, 64x8 MEE cache
    platform = SkylakePlatform(techniques=TechniqueSet.ctx_sgx_dram_only())
    engine = platform.mee
    device = platform.board.memory
    blocks = engine.geometry.data_blocks
    bursts, per_burst = (80, 100) if size == "full" else (4, 25)

    rng = random.Random(f"mee-random-access:{seed}")
    shadow = bytearray(engine.data_capacity)
    plan: List[List[Tuple[str, int, Any]]] = []
    expected: List[List[bytes]] = []
    last_full_write = 0  # initialize_region writes every block
    # every burst has the same mix in its own order, so every seed does
    # the same work: 70 % reads, 15 % full writes, 15 % 16-byte
    # read-modify-writes
    mix = ["read"] * (per_burst * 70 // 100) + ["partial"] * (per_burst * 15 // 100)
    mix += ["write"] * (per_burst - len(mix))
    for _ in range(bursts):
        accesses, reads = [], []
        for kind in rng.sample(mix, len(mix)):
            block = rng.randrange(blocks)
            if kind == "read":
                offset = block * BLOCK_SIZE
                accesses.append(("read", offset, BLOCK_SIZE))
                reads.append(bytes(shadow[offset : offset + BLOCK_SIZE]))
                continue
            partial = kind == "partial"
            length = 16 if partial else BLOCK_SIZE
            offset = block * BLOCK_SIZE + (16 * rng.randrange(4) if partial else 0)
            data = rng.randbytes(length)
            accesses.append(("write", offset, data))
            shadow[offset : offset + length] = data
            if not partial:
                last_full_write = offset
        plan.append(accesses)
        expected.append(reads)

    def op(accesses) -> Callable[[], Any]:
        def run():
            out = []
            for kind, offset, arg in accesses:
                if kind == "read":
                    out.append(engine.read(offset, arg))
                else:
                    out.append(engine.write(offset, arg))
            return out

        return run

    def check(index: int, outputs) -> Tuple[Any, List[str]]:
        got = [out[0] for out in outputs if isinstance(out, tuple)]  # reads: (data, latency)
        problems = [
            f"burst {index}: read {n} differs from the shadow copy"
            for n, (data, want) in enumerate(zip(got, expected[index]))
            if data != want
        ]
        return outputs, problems

    def tamper() -> Tuple[Any, List[str]]:
        """Flip one ciphertext byte in DRAM; the next read must refuse it."""
        address = engine.geometry.block_address(last_full_write // BLOCK_SIZE)
        (byte,), _latency = device.read(address, 1)
        device.write(address, bytes([byte ^ 0x01]))
        try:
            engine.read(last_full_write, BLOCK_SIZE)
        except SecurityError:
            return {"tamper_detected": True}, []
        return {"tamper_detected": False}, [
            "tamper: a flipped DRAM byte was read back without SecurityError"
        ]

    return Workload(
        name="mee-random-access",
        ops=[op(accesses) for accesses in plan],
        labels=[f"burst-{index}" for index in range(bursts)],
        check=check,
        # looked up per call, so the layer tracer's wrapper is seen
        begin_pass=lambda: engine.initialize_region(),
        final_op=tamper,
    )


_FACTORIES: Dict[str, Callable[[int, str], Workload]] = {
    "context-save-restore": _context_save_restore,
    "standby-dark": _standby_dark,
    "macro-projection": _macro_projection,
    "mee-random-access": _mee_random_access,
}


def setup(name: str, seed: int, size: str = "full") -> Workload:
    """Import everything ``name`` calls and generate its inputs."""
    if name not in _FACTORIES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {', '.join(SIZES)}")
    return _FACTORIES[name](seed, size)
