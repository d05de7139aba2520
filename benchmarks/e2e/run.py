"""End-to-end benchmark of the ODRIPS reproduction.

Runs each workload of :mod:`workloads` in its own fresh, single-threaded
interpreter, one after another, prints every metric by name and unit,
and checks every output (paper goldens, sanity checks, shadow copies,
digests in ``expected.json``).  A measured run repeats the workload's
pass (under a second of work) until ``--seconds`` have passed.

Times are reported at a fixed host speed.  The host is shared, and how
fast it runs the same code swings by half from one minute to the next,
so every op repetition is timed between two calls of :func:`reference`,
a fixed loop of code like the simulator's that calls nothing in
``repro``.  An op's cost is the median over its repetitions of its host
time divided by the mean of the two reference times around it, scaled
by :data:`REFERENCE_S`: the op's host time on a host that runs the
reference loop in exactly that long.  A change that makes the program
faster lowers it one-for-one; the host's neighbours do not move it.

    python3 benchmarks/e2e/run.py                       # all four workloads
    python3 benchmarks/e2e/run.py --trace --trace-out /tmp/e2e-spans   # per-layer numbers
    python3 benchmarks/e2e/run.py --workload standby-dark --seed 7 --seconds 20
    python3 benchmarks/e2e/run.py --json runs.json      # append results for compare.py

The last line of standard output is one JSON object: with
``--workload`` it holds ``correct``, ``attempted``, ``failed`` and
``metrics``; without, one such object per workload.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import hmac
import json
import os
import resource
import statistics
import struct
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

#: End-to-end metrics (tracing off), in print order, with units.
END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Nominal time of one :func:`reference` call; every reported time is
#: host time at the speed at which the reference loop takes this long
#: (a quiet 2-core Xeon host runs it in about 5 ms).
REFERENCE_S = 0.005
#: Interpreters spawned per run to time set-up (half before the measured
#: run, half after); the median is reported.
SETUP_SAMPLES = 9
#: Reference calls timed just before spawning an interpreter and just
#: after its set-up; like an op, set-up is scaled by the two medians' mean.
SETUP_REFERENCES = 5
#: Whole passes a measured run makes at least, however short ``--seconds``.
MIN_PASSES = 3
#: Pass order of a traced run (True = traced), so that neither the cold
#: first pass nor host drift weighs on one side alone.
TRACE_ORDER = (False, True, True, False)
#: Whole-workload deadline, under the 180 s a run may take.
TIMEOUT_S = 170.0
#: Protocol prefix of the lines a workload process sends its parent.
TAG = "@@e2e "
#: Failure messages kept per run.
MAX_PROBLEMS = 5


def percentile(values: List[float], q: float) -> float:
    """Linearly interpolated ``q``-th percentile (0 <= q <= 100)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(ops_per_pass: int) -> float:
    """Highest percentile with at least ten of one pass's ops beyond it.

    Fixed by the workload's pass length, so every run reports the same
    percentile; passes shorter than 20 ops report their maximum.
    """
    return 100.0 * (1.0 - 10.0 / ops_per_pass) if ops_per_pass >= 20 else 100.0


_REFERENCE_KEY = b"e2e-reference-key-0123456789abcd"


def reference() -> int:
    """A fixed slice of work like the simulator's hot paths.

    Dict lookups, list updates, struct packing and HMAC-SHA256 of short
    messages, as in the MEE, the event kernel and the power tree.  It
    calls no ``repro`` code, so no change to the program moves it: timed
    next to an op, it measures how fast the shared host is running then.
    """
    table: Dict[int, list] = {}
    acc = 0
    for i in range(2000):
        slot = table.get(i & 63)
        if slot is None:
            slot = table[i & 63] = [0, b""]
        slot[0] += i
        slot[1] = hmac.new(_REFERENCE_KEY, struct.pack(">QQ", i, slot[0]), hashlib.sha256).digest()
        acc ^= slot[1][0]
    return acc


def reference_time() -> float:
    begin = time.perf_counter()
    reference()
    return time.perf_counter() - begin


# --- the workload process ---------------------------------------------------------------


class Checker:
    """Counts attempted/failed ops and compares digests with ``expected``."""

    def __init__(self, workload, expected: Optional[List[str]]) -> None:
        self.workload = workload
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digests: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    def __call__(self, index: int, output: Any) -> None:
        self.verify(index, self.workload.labels[index], *self.workload.check(index, output))

    def final(self) -> None:
        """Run the workload's untimed final op; its payload is digest ``len(ops)``."""
        if self.workload.final_op is None:
            return
        try:
            payload, problems = self.workload.final_op()
        except Exception:  # like a timed op, a final op that raises has failed
            self.attempted += 1
            self.fail(f"final: {traceback.format_exc(limit=3)}")
            return
        self.verify(len(self.workload.ops), "final", payload, problems)

    def verify(self, index: int, label: str, payload: Any, problems: List[str]) -> None:
        import workloads

        self.attempted += 1
        got = workloads.digest(payload)
        if len(self.digests) <= index:
            self.digests.append(got)
        if self.expected is not None and (
            index >= len(self.expected) or self.expected[index] != got
        ):
            problems = problems + [f"{label}: digest mismatch"]
        if problems:
            self.fail("; ".join(problems))


def run_passes(workload, check: Checker, seconds: float, passes: int, tracer=None):
    """Closed loop over the workload's passes.

    Runs ``passes`` whole passes, then keeps going until ``seconds`` have
    passed and stops at the next op boundary.  Returns each op's costs
    (host time in reference times, one per repetition), the
    ``begin_pass`` costs and every reference time; checks run outside
    the timed regions.
    """
    clock = time.perf_counter
    costs: List[List[float]] = [[] for _ in workload.ops]
    begins: List[float] = []
    references: List[float] = []
    started = clock()
    completed = 0
    op_id = 0

    def done() -> bool:
        return completed >= passes and clock() - started >= seconds

    def timed(fn: Callable[[], Any], label: str, into: List[float]) -> Any:
        """``fn()``, its cost appended to ``into`` even when it raises."""
        nonlocal op_id
        op_id += 1
        before = reference_time()
        if tracer is not None:
            tracer.begin_op(op_id, label)
        begin = clock()
        try:
            return fn()
        finally:
            elapsed = clock() - begin
            if tracer is not None:
                tracer.end_op()
            after = reference_time()
            references.extend((before, after))
            into.append(elapsed / ((before + after) / 2))

    while not done():
        timed(workload.begin_pass, "begin-pass", begins)
        for index, label in enumerate(workload.labels):
            if done():
                break
            try:
                output = timed(workload.ops[index], label, costs[index])
            except Exception:  # an op that raises is a failed op; keep measuring
                check.attempted += 1
                check.fail(f"{label}: {traceback.format_exc(limit=3)}")
                continue
            check(index, output)
        else:
            completed += 1
    return costs, begins, references


def op_seconds(costs: List[List[float]]) -> List[float]:
    """Each op's host time at the nominal speed: its median cost."""
    return [statistics.median(repetitions) * REFERENCE_S for repetitions in costs if repetitions]


def pass_time(costs: List[List[float]], begins: List[float]) -> float:
    """One pass's host time at the nominal speed."""
    return statistics.median(begins) * REFERENCE_S + sum(op_seconds(costs))


def load_expected(path: Path, size: str, name: str, seed: int):
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(size, {}).get(name, {}).get(str(seed))


def emit(payload: Dict[str, Any]) -> None:
    print(TAG + json.dumps(payload), flush=True)


def child_main(args: argparse.Namespace) -> int:
    """One workload in this (fresh) interpreter; reports to the parent."""
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")
    import workloads

    workload = workloads.setup(args.workload, args.seed, args.size)
    setup = {
        "setup_s": time.monotonic() - args.spawned_at,
        "reference_after_s": statistics.median(
            reference_time() for _ in range(SETUP_REFERENCES)
        ),
    }
    if args.setup_only:
        emit(setup)
        return 0

    expected = load_expected(Path(args.expected), args.size, args.workload, args.seed)
    check = Checker(workload, expected)
    gc.collect()
    result: Dict[str, Any] = dict(setup)
    if args.trace:
        import layers

        side_costs = {side: [[] for _ in workload.ops] for side in (False, True)}
        side_begins: Dict[bool, List[float]] = {False: [], True: []}
        tracer = None
        for traced in TRACE_ORDER:
            pass_tracer = layers.LayerTracer() if traced else None
            if pass_tracer is not None:
                pass_tracer.install()
            try:
                costs, begins, _references = run_passes(workload, check, 0.0, 1, pass_tracer)
            finally:
                if pass_tracer is not None:
                    pass_tracer.uninstall()
            for repetitions, new in zip(side_costs[traced], costs):
                repetitions.extend(new)
            side_begins[traced].extend(begins)
            # the layer table is the last traced pass's
            tracer = pass_tracer or tracer
        result["metrics"] = tracer.metrics(
            pass_time(side_costs[False], side_begins[False]),
            pass_time(side_costs[True], side_begins[True]),
        )
        result["trace_file"] = None
        if args.trace_out:
            out = Path(args.trace_out) / f"trace-{args.workload}-{args.seed}.json"
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(dict(
                tracer.dump(), workload=args.workload, seed=args.seed, metrics=result["metrics"]
            )))
            result["trace_file"] = str(out)
    else:
        costs, begins, references = run_passes(workload, check, args.seconds, MIN_PASSES)
        ops = op_seconds(costs)
        tail_q = tail_percentile(len(ops))
        result["metrics"] = {
            "pass_s": pass_time(costs, begins),
            "op_p50_ms": statistics.median(ops) * 1e3,
            "op_tail_ms": percentile(ops, tail_q) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result.update(
            ops=len(ops), reps=[min(map(len, costs)), max(map(len, costs))], tail_q=tail_q,
            reference_ms=statistics.median(references) * 1e3,
        )
    check.final()
    result.update(
        attempted=check.attempted,
        failed=check.failed,
        problems=check.problems,
        digests="unchecked" if expected is None else "checked",
        paper_err_max=max(workload.paper_err) if workload.paper_err else None,
    )
    emit(result)
    return 0


# --- the parent ------------------------------------------------------------------------------


class WorkloadFailed(RuntimeError):
    pass


def spawn(args: argparse.Namespace, name: str, deadline: float, setup_only: bool) -> Dict:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(int(args.trace)), "--size", args.size, "--expected", args.expected,
    ]
    if setup_only:
        command.append("--setup-only")
    if args.trace_out:
        command += ["--trace-out", args.trace_out]
    env = dict(
        os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkloadFailed(f"{name}: out of time")
    before = statistics.median(reference_time() for _ in range(SETUP_REFERENCES))
    command += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as error:
        raise WorkloadFailed(f"{name}: no result within {TIMEOUT_S:.0f} s") from error
    lines = [line[len(TAG):] for line in proc.stdout.splitlines() if line.startswith(TAG)]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise WorkloadFailed(f"{name}: workload process exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] *= REFERENCE_S / ((before + result["reference_after_s"]) / 2)
    return result


def measure(args: argparse.Namespace, name: str) -> Dict[str, Any]:
    """Set-up samples plus one measured (or traced) run of ``name``."""
    deadline = time.monotonic() + TIMEOUT_S
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    setups = [spawn(args, name, deadline, setup_only=True)["setup_s"] for _ in range(extra // 2)]
    result = spawn(args, name, deadline, setup_only=False)
    setups.append(result["setup_s"])
    setups += [spawn(args, name, deadline, setup_only=True)["setup_s"]
               for _ in range(extra - extra // 2)]
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
    result["setup_samples"] = len(setups)
    result["correct"] = result["failed"] == 0
    return result


def units() -> Dict[str, str]:
    from layers import LAYER_METRICS

    return dict(END_TO_END + LAYER_METRICS)


def report(name: str, result: Dict[str, Any], args: argparse.Namespace) -> None:
    unit_of = units()
    print(
        f"== {name} (seed {args.seed}, size {args.size}{', traced' if args.trace else ''}): "
        f"{result['attempted']} ops attempted, {result['failed']} failed, "
        f"digests {result['digests']}"
    )
    notes = {
        "setup_s": f"median of {result['setup_samples']} set-ups",
        "pass_s": "one pass: sum of each op's median cost; host ran the "
                  f"{REFERENCE_S * 1e3:g} ms reference in {result.get('reference_ms', 0):.3g} ms",
        "op_p50_ms": "n={} ops, {}-{} repetitions each".format(
            result.get("ops"), *result.get("reps", (0, 0))
        ),
        "op_tail_ms": f"p{result.get('tail_q', 0):g}, n={result.get('ops')} ops",
    }
    order = [metric for metric, _ in END_TO_END] if not args.trace else list(result["metrics"])
    for metric in order:
        value = result["metrics"][metric]
        print(f"   {metric:<34} {value:>14.6g} {unit_of[metric]:<6} {notes.get(metric, '')}")
    if not args.trace:
        frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
        print(f"   {'failed_frac':<34} {frac:>14.6g} {'-':<6} "
              f"{result['failed']} of {result['attempted']}")
        if result["paper_err_max"] is not None:
            print(f"   {'paper_err_max':<34} {result['paper_err_max']:>14.6g} {'-':<6} "
                  "largest |measured - paper| / tolerance")
    else:
        print(f"   spans and layer table: {result['trace_file'] or 'not written (--trace-out DIR)'}")
    for problem in result["problems"]:
        print(f"   FAILED {problem}")


def contract_line(result: Dict[str, Any], unit_of: Dict[str, str]) -> Dict[str, Any]:
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric: {"value": value, "unit": unit_of[metric]}
            for metric, value in result["metrics"].items()
        },
    }


def append_json(path: Path, args: argparse.Namespace, results: Dict[str, Dict]) -> None:
    """Add this run to ``path`` (a ``{"runs": [...]}`` file for compare.py)."""
    data = json.loads(path.read_text()) if path.is_file() else {"runs": []}
    data["runs"].append({
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": bool(args.trace),
        "results": {
            name: {
                key: result[key]
                for key in ("correct", "attempted", "failed", "metrics", "paper_err_max")
            }
            for name, result in results.items()
        },
    })
    path.write_text(json.dumps(data, indent=1) + "\n")


def record(args: argparse.Namespace, names: List[str]) -> int:
    """Write this seed's per-op digests into ``--expected``."""
    sys.path.insert(0, str(SRC))
    import workloads

    path = Path(args.expected)
    data = json.loads(path.read_text()) if path.is_file() else {}
    for name in names:
        workload = workloads.setup(name, args.seed, args.size)
        check = Checker(workload, None)
        run_passes(workload, check, 0.0, 1)
        check.final()
        if check.failed:
            print(f"error: {name}: {check.problems}", file=sys.stderr)
            return 1
        data.setdefault(args.size, {}).setdefault(name, {})[str(args.seed)] = check.digests
        print(f"recorded {len(check.digests)} digests for {name} [{args.size}] seed {args.seed}")
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    from workloads import NAMES, SIZES

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=2020, help="input seed (held-out: 7)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="run the workload's whole passes, then until this many seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="traced run: per-layer metrics instead of end-to-end ones")
    parser.add_argument("--json", metavar="OUT", help="append this run's results to OUT")
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="'tiny' shrinks every pass (for the harness tests)")
    parser.add_argument("--expected", default=str(EXPECTED), help="digest file")
    parser.add_argument("--record", action="store_true",
                        help="write this seed's digests into --expected and exit")
    parser.add_argument("--trace-out", metavar="DIR",
                        help="write each traced workload's spans and layer table into DIR")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import NAMES

    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(NAMES)
    if args.record:
        return record(args, names)
    unit_of = units()
    results = {}
    for name in names:
        try:
            results[name] = measure(args, name)
        except WorkloadFailed as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        report(name, results[name], args)
    if args.json:
        append_json(Path(args.json), args, results)
    if args.workload:
        print(json.dumps(contract_line(results[args.workload], unit_of)))
    else:
        print(json.dumps({name: contract_line(result, unit_of) for name, result in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
