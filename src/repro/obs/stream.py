"""Bounded-memory streaming telemetry: ``repro.obs.stream``.

Everything else in :mod:`repro.obs` is post-hoc — tracer spans, run
records and attribution cubes only become visible after a run finishes.
This module is the live side: a :class:`TelemetryStream` aggregates
tracer metrics, measurement digests, and kernel/macro/sweep progress
into bounded-memory structures **while a run executes**:

* :class:`~repro.obs.metrics.BoundedHistogram` instances (base-1.2 log
  buckets, exact count/sum/min/max, mergeable across worker processes);
* :class:`RollingWindow` aggregates over *simulated* time;
* per-source progress **heartbeats** — cycles done vs target, events per
  wall second, simulated-vs-wall ratio, and an ETA — emitted from the
  :class:`~repro.workloads.standby.ConnectedStandbyRunner` cycle loop,
  the macro engine's skip executor, and :func:`repro.analysis.sweep.sweep`
  workers.

A stream is installed through the one observation hook
(``obs.observe(stream=TelemetryStream())``): hot paths capture the
active stream once per run, so a stream installed mid-run attaches at
the next run boundary, and they pay a single ``None`` check per cycle
when telemetry is disabled.  Streaming is pure observation — it never touches
the kernel, the meter, or the RNG streams, so simulation results are
bit-for-bit identical with and without a stream installed.

Sweep workers are separate *processes*: their channel back to the parent
is the **heartbeat directory** — one atomically-replaced JSON file per
worker carrying its latest progress plus bounded-histogram snapshots,
which the parent merges via :func:`merge_worker_heartbeats` (and which
``python -m repro dash`` joins into the fleet dashboard while the sweep
is still running).

Two sinks consume a stream: the OpenMetrics text exposition
(:mod:`repro.obs.openmetrics`, ``python -m repro metrics --openmetrics``)
and the static fleet dashboard (:mod:`repro.obs.dash`,
``python -m repro dash``).
"""

from __future__ import annotations

import json
import os
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from repro.effects import declares_effects
from repro.errors import MeasurementError
from repro.obs.metrics import BoundedHistogram
from repro.obs.runlog import host_wall_s
from repro.units import PICOSECONDS_PER_SECOND

#: Schema identifier stamped into every heartbeat payload.
HEARTBEAT_SCHEMA = "repro-heartbeat/1"

#: Default heartbeat directory (``--heartbeat`` with no argument),
#: relative to the working directory like the runlog store.
DEFAULT_HEARTBEAT_DIR = os.path.join(".repro", "heartbeats")

#: File-name prefix of per-worker heartbeat files in a heartbeat dir.
WORKER_HEARTBEAT_PREFIX = "worker-"

#: File-name prefix of in-process heartbeat files in a heartbeat dir.
SOURCE_HEARTBEAT_PREFIX = "hb-"


class RollingWindow:
    """A bounded rolling aggregate over *simulated* time.

    Keeps at most ``maxlen`` recent ``(time_ps, value)`` samples inside a
    trailing window of ``window_ps`` simulated picoseconds; older samples
    are evicted as new ones arrive.  Memory is bounded by ``maxlen``
    regardless of horizon length, so week-scale macro runs can keep a
    live "recent cycles" view without accumulating history.
    """

    __slots__ = ("name", "window_ps", "_samples")

    def __init__(self, name: str, window_ps: int, maxlen: int = 4096) -> None:
        if window_ps <= 0:
            raise MeasurementError(
                f"rolling window {name!r} needs a positive span (got {window_ps} ps)"
            )
        self.name = name
        self.window_ps = window_ps
        self._samples: Deque[Tuple[int, float]] = deque(maxlen=maxlen)

    def observe(self, time_ps: int, value: float) -> None:
        self._samples.append((time_ps, float(value)))
        horizon = time_ps - self.window_ps
        while self._samples and self._samples[0][0] < horizon:
            self._samples.popleft()

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def total(self) -> float:
        return sum(value for _time_ps, value in self._samples)

    @property
    def mean(self) -> float:
        return self.total / len(self._samples) if self._samples else 0.0

    def rate_per_sim_second(self) -> float:
        """Samples per simulated second across the retained span."""
        if len(self._samples) < 2:
            return 0.0
        span_ps = self._samples[-1][0] - self._samples[0][0]
        if span_ps <= 0:
            return 0.0
        return (len(self._samples) - 1) / (span_ps / PICOSECONDS_PER_SECOND)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "window_ps": self.window_ps,
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "rate_per_sim_s": self.rate_per_sim_second(),
        }


@declares_effects("fs")  # atomic heartbeat replace is the sink's contract
def _atomic_write_json(path: Path, payload: Dict[str, Any]) -> Path:
    """Write ``payload`` to ``path`` via rename, so readers never see a torn file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    tmp.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return path


class TelemetryStream:
    """Live bounded-memory aggregation for one observed run or sweep.

    Collects bounded histograms, rolling windows, labels (experiment
    name, config fingerprint — the OpenMetrics exemplar payload), and
    the latest heartbeat per source.  With ``heartbeat_dir`` set, every
    heartbeat is also mirrored to an atomically-replaced JSON file so
    concurrent readers (the dashboard, other processes) can watch
    progress live.
    """

    def __init__(
        self, heartbeat_dir: Optional[Union[str, Path]] = None
    ) -> None:
        self.heartbeat_dir = Path(heartbeat_dir) if heartbeat_dir is not None else None
        self.histograms: Dict[str, BoundedHistogram] = {}
        self.windows: Dict[str, RollingWindow] = {}
        self.heartbeats: Dict[str, Dict[str, Any]] = {}
        self.labels: Dict[str, str] = {}
        self._epoch_s = host_wall_s()

    # --- instruments ------------------------------------------------------

    def histogram(self, name: str) -> BoundedHistogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = BoundedHistogram(name)
        return instrument

    def window(self, name: str, window_ps: int) -> RollingWindow:
        instrument = self.windows.get(name)
        if instrument is None:
            instrument = self.windows[name] = RollingWindow(name, window_ps)
        return instrument

    def set_label(self, key: str, value: str) -> None:
        """Attach a run label (e.g. ``experiment``, ``fingerprint``)."""
        self.labels[key] = str(value)

    # --- heartbeats -------------------------------------------------------

    @declares_effects("time", "fs", "identity")  # wall clock + mirror file + pid
    def heartbeat(
        self,
        source: str,
        done: int,
        total: int,
        sim_now_ps: int = 0,
        events: int = 0,
        label: str = "",
    ) -> Dict[str, Any]:
        """Record one progress heartbeat for ``source``.

        ``done``/``total`` count the source's own units (standby cycles
        for the runner and macro engine, sweep points for ``sweep``).
        The payload derives events per wall second, the simulated-vs-wall
        time ratio, and a naive proportional ETA.  Heartbeats overwrite
        per source — the stream keeps the *latest*, never a history.
        """
        wall_s = host_wall_s() - self._epoch_s
        sim_s = sim_now_ps / PICOSECONDS_PER_SECOND
        frac = (done / total) if total > 0 else 0.0
        payload: Dict[str, Any] = {
            "schema": HEARTBEAT_SCHEMA,
            "source": source,
            "pid": os.getpid(),
            "label": label or self.labels.get("experiment", ""),
            "done": done,
            "total": total,
            "frac": frac,
            "sim_now_ps": sim_now_ps,
            "sim_s": sim_s,
            "wall_s": wall_s,
            "events": events,
            "events_per_s": (events / wall_s) if wall_s > 0 else 0.0,
            "sim_per_wall": (sim_s / wall_s) if wall_s > 0 else 0.0,
            "eta_s": (wall_s * (1.0 - frac) / frac) if 0.0 < frac < 1.0 else None,
        }
        self.heartbeats[source] = payload
        if self.heartbeat_dir is not None:
            name = "".join(c if c.isalnum() or c in "-_." else "-" for c in source)
            _atomic_write_json(
                self.heartbeat_dir / f"{SOURCE_HEARTBEAT_PREFIX}{name}.json", payload
            )
        return payload

    # --- sweep aggregation ------------------------------------------------

    @declares_effects("time", "fs", "identity")  # heartbeat mirror per point
    def sweep_point(
        self, done: int, total: int, result: float, wall_s: float
    ) -> None:
        """Fold one completed sweep point into the stream (parent side).

        The two histograms keep exact counts and sums, so a finished
        sweep's ``sweep.point_result`` totals match the per-point exact
        results — the merge-correctness anchor the acceptance test pins.
        """
        self.histogram("sweep.point_result").observe(result)
        self.histogram("sweep.point_wall_s").observe(wall_s)
        self.heartbeat("sweep", done=done, total=total, label="sweep")

    @declares_effects("fs")  # reads the shared heartbeat directory
    def absorb_worker_heartbeats(self) -> int:
        """Merge per-worker heartbeat files into this stream.

        Worker-side bounded histograms (``sweep.worker_result``,
        ``sweep.worker_wall_s``) merge into the same-named parent
        histograms; worker heartbeats land under their own source names.
        Returns the number of worker files absorbed.
        """
        if self.heartbeat_dir is None:
            return 0
        absorbed = 0
        for path, payload in read_heartbeat_dir(self.heartbeat_dir):
            if not path.name.startswith(WORKER_HEARTBEAT_PREFIX):
                continue
            absorbed += 1
            self.heartbeats[str(payload.get("source", path.stem))] = payload
            for name, snap in dict(payload.get("histograms", {})).items():
                incoming = BoundedHistogram.from_snapshot(snap)
                mine = self.histograms.get(name)
                if mine is None:
                    self.histograms[name] = incoming
                else:
                    mine.merge(incoming)
        return absorbed

    # --- snapshots --------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able view of the whole stream (dashboard / exposition input)."""
        return {
            "labels": dict(sorted(self.labels.items())),
            "histograms": {
                name: hist.snapshot()
                for name, hist in sorted(self.histograms.items())
            },
            "windows": {
                name: window.snapshot()
                for name, window in sorted(self.windows.items())
            },
            "heartbeats": {
                source: dict(payload)
                for source, payload in sorted(self.heartbeats.items())
            },
        }


# --- worker-side heartbeat emission (separate processes) ----------------------

#: Per-process sweep-worker aggregation state, keyed by heartbeat dir.
#: Lives across tasks served by the same pool worker.
_WORKER_STATE: Dict[str, Dict[str, Any]] = {}


@declares_effects("time", "fs", "identity", "module-state")
def record_worker_point(
    directory: str, result: float, wall_s: float, points_total: int
) -> None:
    """Fold one sweep point into this worker's heartbeat file.

    Called from inside a sweep worker process: updates the worker-local
    bounded histograms and atomically replaces
    ``<dir>/worker-<pid>.json`` with the worker's latest progress +
    histogram snapshots.  The parent merges the files after (or during)
    the sweep via :meth:`TelemetryStream.absorb_worker_heartbeats`.
    """
    state = _WORKER_STATE.get(directory)
    if state is None:
        state = _WORKER_STATE[directory] = {
            "result": BoundedHistogram("sweep.worker_result"),
            "wall_s": BoundedHistogram("sweep.worker_wall_s"),
            "points": 0,
            "total_wall_s": 0.0,
        }
    state["result"].observe(result)
    state["wall_s"].observe(wall_s)
    state["points"] += 1
    state["total_wall_s"] += wall_s
    pid = os.getpid()
    done = int(state["points"])
    payload = {
        "schema": HEARTBEAT_SCHEMA,
        "source": f"sweep-worker-{pid}",
        "pid": pid,
        "label": "sweep-worker",
        "done": done,
        "total": points_total,
        "frac": (done / points_total) if points_total > 0 else 0.0,
        "sim_now_ps": 0,
        "sim_s": 0.0,
        "wall_s": float(state["total_wall_s"]),
        "events": done,
        "events_per_s": (
            done / state["total_wall_s"] if state["total_wall_s"] > 0 else 0.0
        ),
        "sim_per_wall": 0.0,
        "eta_s": None,
        "histograms": {
            "sweep.worker_result": state["result"].snapshot(),
            "sweep.worker_wall_s": state["wall_s"].snapshot(),
        },
    }
    _atomic_write_json(Path(directory) / f"{WORKER_HEARTBEAT_PREFIX}{pid}.json", payload)


@declares_effects("fs")  # reads the shared heartbeat directory
def read_heartbeat_dir(
    directory: Union[str, Path],
) -> List[Tuple[Path, Dict[str, Any]]]:
    """Every parseable heartbeat payload in ``directory``, sorted by name.

    Torn or foreign files are skipped — the atomic-replace protocol makes
    them transient, and the dashboard must never crash on a live dir.
    """
    root = Path(directory)
    out: List[Tuple[Path, Dict[str, Any]]] = []
    if not root.is_dir():
        return out
    for path in sorted(root.glob("*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(payload, dict) and payload.get("schema") == HEARTBEAT_SCHEMA:
            out.append((path, payload))
    return out


def merge_worker_heartbeats(
    directory: Union[str, Path],
) -> Dict[str, BoundedHistogram]:
    """Merge every worker heartbeat file's histograms into one map.

    The cross-process aggregation primitive: each worker ships bounded
    snapshots, the merge adds counts and sums exactly.
    """
    merged: Dict[str, BoundedHistogram] = {}
    for path, payload in read_heartbeat_dir(directory):
        if not path.name.startswith(WORKER_HEARTBEAT_PREFIX):
            continue
        for name, snap in dict(payload.get("histograms", {})).items():
            incoming = BoundedHistogram.from_snapshot(snap)
            current = merged.get(name)
            if current is None:
                merged[name] = incoming
            else:
                current.merge(incoming)
    return merged

