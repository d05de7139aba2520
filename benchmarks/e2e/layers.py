"""Outside-in layer tracing for the end-to-end benchmark.

The tracer wraps public functions of each ``repro`` layer from the
benchmark's side (nothing under ``src/`` changes) and attributes host
time to layers by self time: a call's inclusive time minus the time of
the wrapped calls nested inside it.

Boundaries at or above the per-transfer level (``measure``,
platform build and boot, ``Kernel.run``, FSM transfers, bulk MEE
operations, macro boundaries, residency) record a span
each.  Boundaries called per block or per event (tree, crypto, device,
``set_power``, ``record``, capture) are only aggregated per parent span
as ``[calls, inclusive_s, self_s]``, which keeps memory bounded: one
ODRIPS ``measure`` makes about 450k device calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The benchmark's own operation span; its self time is unattributed.
OP = "op"


@dataclass(frozen=True)
class Boundary:
    """One wrapped public function and the layer key it reports under."""

    module: str
    owner: Optional[str]  # class name, or None for a module-level function
    name: str
    key: str
    span: bool = False
    #: Parent keys under which a call is part of the parent's own work
    #: (``bulk_write`` calls ``write`` per block) and is not re-counted.
    inside: Tuple[str, ...] = ()
    #: Counter increments derived from ``(args, kwargs, result)``.
    count: Optional[Callable[..., Dict[str, float]]] = None
    #: Reader of cumulative counters on ``args[0]``; deltas are summed.
    watch: Optional[Callable[[Any], Dict[str, float]]] = None
    #: Reader of a level on ``args[0]``; the per-op sum's maximum is kept.
    level: Optional[Callable[[Any], Dict[str, float]]] = None


def _engine_counters(engine) -> Dict[str, float]:
    return {
        "sgx.blocks": engine.stats.blocks_written + engine.stats.blocks_read,
        "sgx.metadata_accesses": engine.tree.metadata_accesses,
        "sgx.cache_hits": engine.cache.hits,
        "sgx.cache_lookups": engine.cache.hits + engine.cache.misses,
    }


def _device_pages(device) -> Dict[str, float]:
    # devices keep their SparseMemory private; its page count is public
    store = getattr(device, "_store", None)
    return {"memory.pages": getattr(store, "resident_pages", 0)}


def _trace_samples(recorder) -> Dict[str, float]:
    return {"sim.trace.samples": len(recorder)}


def _measure_counts(args, kwargs, result) -> Dict[str, float]:
    stats = getattr(result, "macro", None)
    if not stats:
        return {}
    cycles = kwargs.get("cycles", args[1] if len(args) > 1 else 2)
    return {
        "sim.macro.cycles_compiled": stats.get("cycles_compiled", 0),
        "sim.macro.fallbacks": stats.get("fallbacks", 0),
        "sim.macro.fingerprint_mismatches": stats.get("fingerprint_mismatches", 0),
        # the runner simulates one extra cycle for the window's closing wake
        "sim.macro.cycles": cycles + 1,
    }


def _read_bytes(args, kwargs, result) -> Dict[str, float]:
    return {"memory.dev.bytes": args[2]}


def _write_bytes(args, kwargs, result) -> Dict[str, float]:
    return {"memory.dev.bytes": len(args[2])}


def _capture_bytes(args, kwargs, result) -> Dict[str, float]:
    return {"processor.capture.bytes": len(result)}


def _kernel_events(args, kwargs, result) -> Dict[str, float]:
    return {"sim.kernel.events": result}


_MEE = "repro.sgx.mee"
_BULK = ("sgx.bulk_write", "sgx.bulk_read")

BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("repro.core.odrips", "ODRIPSController", "measure", "core.measure",
             span=True, count=_measure_counts),
    Boundary("repro.system.skylake", "SkylakePlatform", "__init__", "system.build", span=True),
    Boundary("repro.system.skylake", "SkylakePlatform", "boot", "system.boot", span=True),
    Boundary("repro.system.skylake", "SkylakePlatform", "apply_active_state", "system.state"),
    Boundary("repro.system.skylake", "SkylakePlatform", "apply_drips_state", "system.state"),
    Boundary("repro.system.skylake", "SkylakePlatform", "set_transition_state", "system.state"),
    Boundary("repro.processor.core", "ComputeDomain", "capture_context", "processor.capture",
             count=_capture_bytes),
    Boundary("repro.processor.system_agent", "SystemAgent", "capture_context",
             "processor.capture", count=_capture_bytes),
    Boundary("repro.processor.core", "ComputeDomain", "verify_restored", "processor.verify"),
    Boundary("repro.processor.system_agent", "SystemAgent", "verify_restored",
             "processor.verify"),
    Boundary("repro.processor.system_agent", "SystemAgent", "sa_fsm_flush", "processor.fsm",
             span=True),
    Boundary("repro.processor.system_agent", "SystemAgent", "sa_fsm_restore", "processor.fsm",
             span=True),
    Boundary("repro.processor.system_agent", "SystemAgent", "llc_fsm_flush", "processor.fsm",
             span=True),
    Boundary("repro.processor.system_agent", "SystemAgent", "llc_fsm_restore", "processor.fsm",
             span=True),
    Boundary(_MEE, "MemoryEncryptionEngine", "initialize_region", "sgx.init_region",
             span=True, watch=_engine_counters),
    Boundary(_MEE, "MemoryEncryptionEngine", "bulk_write", "sgx.bulk_write",
             span=True, watch=_engine_counters),
    Boundary(_MEE, "MemoryEncryptionEngine", "bulk_read", "sgx.bulk_read",
             span=True, watch=_engine_counters),
    Boundary(_MEE, "MemoryEncryptionEngine", "read", "sgx.access", inside=_BULK,
             watch=_engine_counters),
    Boundary(_MEE, "MemoryEncryptionEngine", "write", "sgx.access", inside=_BULK,
             watch=_engine_counters),
    Boundary("repro.sgx.integrity_tree", "IntegrityTree", "update_block", "sgx.tree_update"),
    Boundary("repro.sgx.integrity_tree", "IntegrityTree", "verify_block", "sgx.tree_verify"),
    Boundary("repro.sgx.crypto", "MacKey", "tag", "sgx.mac"),
    Boundary("repro.sgx.crypto", "MacKey", "verify", "sgx.mac"),
    Boundary("repro.sgx.crypto", "CtrCipher", "encrypt", "sgx.cipher"),
    Boundary("repro.sgx.crypto", "CtrCipher", "decrypt", "sgx.cipher"),
    Boundary("repro.memory.dram", "DRAMDevice", "read", "memory.dev",
             count=_read_bytes, level=_device_pages),
    Boundary("repro.memory.dram", "DRAMDevice", "write", "memory.dev",
             count=_write_bytes, level=_device_pages),
    Boundary("repro.memory.nvm", "NVMDevice", "read", "memory.dev",
             count=_read_bytes, level=_device_pages),
    Boundary("repro.memory.nvm", "NVMDevice", "write", "memory.dev",
             count=_write_bytes, level=_device_pages),
    Boundary("repro.power.domain", "Component", "set_power", "power.set_power"),
    Boundary("repro.power.domain", "Component", "set_dynamic", "power.set_power"),
    Boundary("repro.power.tree", "PowerTree", "platform_power", "power.query"),
    Boundary("repro.power.tree", "PowerTree", "attributed_breakdown", "power.query"),
    Boundary("repro.sim.kernel", "Kernel", "run", "sim.kernel", span=True, count=_kernel_events),
    Boundary("repro.sim.trace", "TraceRecorder", "record", "sim.trace", watch=_trace_samples),
    Boundary("repro.sim.macro", "MacroEngine", "at_boundary", "sim.macro", span=True),
    # looked up by name in repro.workloads.standby at call time
    Boundary("repro.workloads.standby", None, "residency_report", "measure.residency",
             span=True),
    Boundary("repro.workloads.standby", None, "macro_residency_report", "measure.residency",
             span=True),
)


#: Every per-layer metric the traced run reports, in print order, with
#: its unit.  ``BENCHMARK.json`` declares exactly these names.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("core.measure.calls", "count"),
    ("core.measure.incl_s", "s"),
    ("system.build.calls", "count"),
    ("system.build.self_s", "s"),
    ("system.boot.self_s", "s"),
    ("system.state.calls", "count"),
    ("system.state.self_s", "s"),
    ("processor.capture.calls", "count"),
    ("processor.capture.self_s", "s"),
    ("processor.capture.bytes", "B"),
    ("processor.verify.self_s", "s"),
    ("processor.fsm.calls", "count"),
    ("processor.fsm.incl_s", "s"),
) + tuple(
    (f"sgx.{part}.{field}", "count" if field == "calls" else "s")
    for part in ("init_region", "bulk_write", "bulk_read", "access", "tree_update",
                 "tree_verify", "mac", "cipher")
    for field in ("calls", "self_s")
) + (
    ("sgx.blocks", "count"),
    ("sgx.metadata_accesses", "count"),
    ("sgx.metadata_per_block", "ratio"),
    ("sgx.cache_hit_rate", "ratio"),
    ("memory.dev.calls", "count"),
    ("memory.dev.self_s", "s"),
    ("memory.dev.bytes", "B"),
    ("memory.pages", "count"),
    ("power.set_power.calls", "count"),
    ("power.set_power.self_s", "s"),
    ("power.query.calls", "count"),
    ("power.query.self_s", "s"),
    ("sim.kernel.self_s", "s"),
    ("sim.kernel.events", "count"),
    ("sim.trace.calls", "count"),
    ("sim.trace.self_s", "s"),
    ("sim.trace.samples", "count"),
    ("sim.macro.calls", "count"),
    ("sim.macro.self_s", "s"),
    ("sim.macro.cycles_compiled", "count"),
    ("sim.macro.fallbacks", "count"),
    ("sim.macro.fingerprint_mismatches", "count"),
    ("sim.macro.compiled_frac", "ratio"),
    ("measure.residency.calls", "count"),
    ("measure.residency.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.attributed_frac", "ratio"),
)


class LayerTracer:
    """Wraps every :data:`BOUNDARIES` function while installed.

    Frames on one stack carry ``[key, start, child_time, span_index]``;
    closing a frame adds its inclusive time to the parent's child time,
    so self time is exact and never double-counted.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        #: key -> [calls, inclusive_s, self_s]
        self.totals: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self.missing: List[str] = []
        self._stack: List[list] = []
        self._span_stack: List[int] = []
        self._op_id = -1
        self._watched: Dict[int, Tuple[Any, Callable, Dict[str, float]]] = {}
        self._leveled: Dict[int, Tuple[Any, Callable]] = {}
        self._levels: Dict[str, float] = {}
        self._installed: List[Tuple[Any, str, Any]] = []

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        for boundary in BOUNDARIES:
            module = importlib.import_module(boundary.module)
            owner = getattr(module, boundary.owner) if boundary.owner else module
            namespace = vars(owner)
            if boundary.name not in namespace:
                self.missing.append(f"{boundary.module}.{boundary.owner or ''}.{boundary.name}")
                continue
            original = namespace[boundary.name]
            self._installed.append((owner, boundary.name, original))
            setattr(owner, boundary.name, self._wrap(original, boundary))
        if self.missing:
            print(f"note: boundaries not found: {', '.join(self.missing)}", file=sys.stderr)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    # --- recording -----------------------------------------------------------------

    def _open_span(self, key: str, label: str, start: float) -> int:
        self.spans.append({
            "name": key,
            "label": label,
            "start": start,
            "end": None,
            "parent": self._span_stack[-1] if self._span_stack else None,
            "op": self._op_id,
            "aggs": {},
        })
        index = len(self.spans) - 1
        self._span_stack.append(index)
        return index

    def _close(self, frame: list, end: float) -> None:
        key, start, child, span_index = frame
        stack = self._stack
        stack.pop()
        inclusive = end - start
        self_time = inclusive - child
        if stack:
            stack[-1][2] += inclusive
        total = self.totals.get(key)
        if total is None:
            total = self.totals[key] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += inclusive
        total[2] += self_time
        if span_index >= 0:
            self._span_stack.pop()
            self.spans[span_index]["end"] = end
            self.spans[span_index]["self"] = self_time
        elif self._span_stack:
            aggs = self.spans[self._span_stack[-1]]["aggs"]
            agg = aggs.get(key)
            if agg is None:
                agg = aggs[key] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += inclusive
            agg[2] += self_time

    def _wrap(self, fn: Callable, boundary: Boundary) -> Callable:
        key = boundary.key
        skip = (key,) + boundary.inside
        span = boundary.span
        label = f"{boundary.owner}.{boundary.name}" if boundary.owner else boundary.name
        count, watch, level = boundary.count, boundary.watch, boundary.level
        stack = self._stack
        clock = time.perf_counter
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] in skip:
                return fn(*args, **kwargs)
            if watch is not None and id(args[0]) not in self._watched:
                self._watched[id(args[0])] = (args[0], watch, watch(args[0]))
            if level is not None and id(args[0]) not in self._leveled:
                self._leveled[id(args[0])] = (args[0], level)
            frame = [key, 0.0, 0.0, -1]
            stack.append(frame)
            if span:
                frame[3] = self._open_span(key, label, clock())
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(frame, clock())
                raise
            self._close(frame, clock())
            if count is not None:
                for name, value in count(args, kwargs, result).items():
                    counters[name] = counters.get(name, 0) + value
            return result

        return traced

    def begin_op(self, op_id: int, label: str) -> None:
        self._op_id = op_id
        frame = [OP, 0.0, 0.0, -1]
        self._stack.append(frame)
        frame[3] = self._open_span(OP, label, time.perf_counter())
        frame[1] = time.perf_counter()

    def end_op(self) -> None:
        """Close the op span and fold the watched objects' counters in."""
        self._close(self._stack[-1], time.perf_counter())
        for obj, reader, base in self._watched.values():
            for name, value in reader(obj).items():
                self.counters[name] = self.counters.get(name, 0) + value - base[name]
        self._watched.clear()
        levels: Dict[str, float] = {}
        for obj, reader in self._leveled.values():
            for name, value in reader(obj).items():
                levels[name] = levels.get(name, 0) + value
        for name, value in levels.items():
            self._levels[name] = max(self._levels.get(name, 0), value)
        self._leveled.clear()

    # --- results -----------------------------------------------------------------------

    def metrics(self, untraced_s: float, traced_s: float) -> Dict[str, float]:
        """Every :data:`LAYER_METRICS` value (0 where a layer did no work).

        ``untraced_s``/``traced_s`` are pass times for the overhead; the
        attributed share is of this tracer's own op time.
        """
        values: Dict[str, float] = {}
        fields = {"calls": 0, "incl_s": 1, "self_s": 2}
        counters = dict(self.counters, **self._levels)
        blocks = counters.get("sgx.blocks", 0)
        lookups = counters.get("sgx.cache_lookups", 0)
        macro_cycles = counters.get("sim.macro.cycles", 0)
        attributed = sum(entry[2] for key, entry in self.totals.items() if key != OP)
        op_s = self.totals.get(OP, [0, 0.0, 0.0])[1]
        derived = {
            "sgx.metadata_per_block": (
                counters.get("sgx.metadata_accesses", 0) / blocks if blocks else 0.0
            ),
            "sgx.cache_hit_rate": (
                counters.get("sgx.cache_hits", 0) / lookups if lookups else 0.0
            ),
            "sim.macro.compiled_frac": (
                counters.get("sim.macro.cycles_compiled", 0) / macro_cycles
                if macro_cycles else 0.0
            ),
            "trace.overhead_frac": traced_s / untraced_s - 1.0,
            "trace.attributed_frac": attributed / op_s if op_s > 0 else 0.0,
        }
        for name, _unit in LAYER_METRICS:
            key, _, field = name.rpartition(".")
            if name in derived:
                values[name] = derived[name]
            elif field in fields:
                values[name] = self.totals.get(key, [0, 0.0, 0.0])[fields[field]]
            else:
                values[name] = counters.get(name, 0)
        return values

    def dump(self) -> Dict[str, Any]:
        """Spans and per-layer totals, JSON-ready."""
        return {
            "spans": self.spans,
            "layers": {
                key: {"calls": entry[0], "incl_s": entry[1], "self_s": entry[2]}
                for key, entry in sorted(self.totals.items())
            },
            "counters": dict(self.counters, **self._levels),
            "missing_boundaries": self.missing,
        }
