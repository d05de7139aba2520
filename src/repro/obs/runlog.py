"""Experiment flight recorder: one structured record per experiment run.

Every run of a registered experiment driver appends one JSON record to
an append-only store under ``.repro/runs/`` (override with the
``REPRO_RUNLOG_DIR`` environment variable), so results stop being
recomputed-and-thrown-away: the regression watchdog (``python -m repro
report``) replays the history against the paper's golden values and
BENCH_perf.json to catch fidelity or performance drift.

A record carries:

* the experiment name and the SHA-256 **config fingerprint** of the
  driver's resolved arguments (via :func:`repro.perf.fingerprint`, cache
  handles excluded) — two records with the same fingerprint ran the same
  configuration;
* the **git revision** of the working tree (read from ``.git`` directly,
  no subprocess) and a UTC timestamp;
* host **wall time**, per-measurement timings contributed by
  :class:`~repro.core.odrips.ODRIPSController` (also from sweep points
  that ran in worker processes), and sweep fan-out stats contributed by
  :func:`repro.analysis.sweep.sweep` (worker count, worker process
  ids and per-point wall times);
* simulation-cache hit/miss stats when a cache was used;
* the **result metrics** and their deltas against the paper's golden
  values, as declared by the driver's registry entry
  (:data:`repro.core.experiments.EXPERIMENTS`);
* the active host-phase profiler summary, when one is installed.

A recorder is installed through the one observation hook
(``obs.observe(recorder=RunRecorder())``); with no recorder installed
every seam is one ``None`` check.  The store
itself is line-oriented JSON (one record per line), so concurrent
appends from separate processes interleave whole records and the file
is grep-able.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.effects import declares_effects
from repro.obs.hook import active

#: Schema identifier stamped into every record; bump on breaking change.
RUNLOG_SCHEMA = "repro-runlog/2"

#: Default store location, relative to the current working directory.
DEFAULT_RUNLOG_DIR = os.path.join(".repro", "runs")

#: Environment variable overriding the store location.
RUNLOG_DIR_ENV = "REPRO_RUNLOG_DIR"

#: File name of the append-only record stream inside the store directory.
RUNLOG_FILE = "runs.jsonl"


def default_runlog_dir() -> Path:
    """The store directory: ``$REPRO_RUNLOG_DIR`` or ``.repro/runs``."""
    return Path(os.environ.get(RUNLOG_DIR_ENV) or DEFAULT_RUNLOG_DIR)


# --- git revision, without a subprocess ---------------------------------------


def _git_dir(start: Optional[Path] = None) -> Optional[Path]:
    """The enclosing repository's ``.git`` directory, if any."""
    current = (start or Path.cwd()).resolve()
    for candidate in [current, *current.parents]:
        git = candidate / ".git"
        if git.is_dir():
            return git
        if git.is_file():  # worktree: "gitdir: <path>"
            try:
                text = git.read_text(encoding="utf-8").strip()
            except OSError:
                return None
            if text.startswith("gitdir:"):
                target = Path(text.split(":", 1)[1].strip())
                if not target.is_absolute():
                    target = candidate / target
                return target if target.is_dir() else None
    return None


def git_revision(start: Optional[Path] = None) -> Optional[str]:
    """The checked-out commit hash, or ``None`` outside a repository.

    Reads ``.git/HEAD`` (following a symbolic ref through the loose ref
    file or ``packed-refs``) so recording never shells out.
    """
    git = _git_dir(start)
    if git is None:
        return None
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref:"):
        return head or None  # detached HEAD: the hash itself
    ref = head.split(":", 1)[1].strip()
    loose = git / ref
    try:
        return loose.read_text(encoding="utf-8").strip() or None
    except OSError:
        pass
    try:
        packed = (git / "packed-refs").read_text(encoding="utf-8")
    except OSError:
        return None
    for line in packed.splitlines():
        if line.startswith("#") or line.startswith("^"):
            continue
        parts = line.split()
        if len(parts) == 2 and parts[1] == ref:
            return parts[0]
    return None


# --- the recorder (in-memory collector) ---------------------------------------


class RunRecorder:
    """Collects one CLI invocation's worth of run records.

    Instrumented seams contribute *pending* sub-events (individual
    measurements, sweep fan-outs); each registered experiment driver then
    drains them into one record via :meth:`experiment`.  Sub-events left
    pending when the recorder is finished (e.g. the ``battery`` command,
    which measures without a registered driver) are flushed into a
    ``cli:<command>`` record so no simulation goes unlogged.
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._pending_measurements: List[Dict[str, Any]] = []
        self._pending_sweeps: List[Dict[str, Any]] = []

    # --- seams ------------------------------------------------------------

    def measurement(
        self,
        label: str,
        wall_s: float,
        cached: bool,
        macro: Optional[Dict[str, Any]] = None,
    ) -> None:
        """One controller measurement (from ``ODRIPSController.measure``).

        ``macro`` is the backend provenance
        (``{"enabled", "cycles_compiled", "steps"}``): whether the run
        was macro-stepped and how much of it was compiled.  It rolls up
        into the enclosing experiment record so ``repro explain`` can
        refuse to diff a macro run against an exact one.
        """
        entry = {"label": label, "wall_s": wall_s, "cached": cached}
        if macro is not None:
            entry["macro"] = macro
        self._pending_measurements.append(entry)

    def sweep(
        self,
        points: int,
        workers: Optional[int],
        wall_s: float,
        point_walls_s: List[float],
        worker_pids: List[int],
    ) -> None:
        """One sweep fan-out (from :func:`repro.analysis.sweep.sweep`).

        ``workers`` is the size of the process pool the points ran in,
        or ``None`` when they ran in-process.
        """
        self._pending_sweeps.append(
            {
                "points": points,
                "workers": workers,
                "wall_s": wall_s,
                "point_walls_s": point_walls_s,
                "worker_pids": sorted(set(worker_pids)),
            }
        )

    def fold(self, other: "RunRecorder") -> None:
        """Take over everything ``other`` collected, after this recorder's own.

        A sweep runs each point under a recorder of its own (in a worker
        process or in-process) and folds it back here in point order, so
        both paths leave the same measurements in the run record.
        """
        self.records.extend(other.records)
        self._pending_measurements.extend(other._pending_measurements)
        self._pending_sweeps.extend(other._pending_sweeps)

    def experiment(
        self,
        name: str,
        fingerprint: str,
        wall_s: float,
        metrics: Dict[str, float],
        goldens: Dict[str, Dict[str, Any]],
        context: Optional[Dict[str, Any]] = None,
        cache_stats: Optional[Dict[str, int]] = None,
    ) -> Dict[str, Any]:
        """Close one experiment run into a record, draining sub-events."""
        record: Dict[str, Any] = {
            "schema": RUNLOG_SCHEMA,
            "experiment": name,
            "fingerprint": fingerprint,
            "wall_s": wall_s,
            "metrics": metrics,
            "goldens": goldens,
        }
        if context:
            record["context"] = context
        if cache_stats is not None:
            record["cache"] = cache_stats
        if self._pending_measurements:
            record["measurements"] = self._pending_measurements
            provenance = [
                m["macro"]
                for m in self._pending_measurements
                if isinstance(m.get("macro"), dict)
            ]
            if provenance:
                # record-level backend provenance: an experiment counts as
                # macro-stepped if any of its measurements was
                record["macro"] = {
                    "enabled": any(bool(p.get("enabled")) for p in provenance),
                    "cycles_compiled": sum(
                        int(p.get("cycles_compiled", 0)) for p in provenance
                    ),
                    "steps": sum(int(p.get("steps", 0)) for p in provenance),
                }
            self._pending_measurements = []
        if self._pending_sweeps:
            record["sweeps"] = self._pending_sweeps
            self._pending_sweeps = []
        profiler = active().profiler
        if profiler is not None:
            record["profile"] = profiler.summary()
        self.records.append(record)
        return record

    def finish(self, command: str) -> None:
        """Flush orphaned sub-events into a synthetic ``cli:`` record."""
        if not self._pending_measurements and not self._pending_sweeps:
            return
        self.experiment(
            name=f"cli:{command}",
            fingerprint="",
            wall_s=sum(m["wall_s"] for m in self._pending_measurements),
            metrics={},
            goldens={},
        )


def host_wall_s() -> float:
    """Host wall-clock reading for run records (never simulated time)."""
    return time.perf_counter()  # lint: allow(S401) flight-recorder wall time


# --- the append-only store ----------------------------------------------------


class RunLog:
    """Append-only JSONL store of run records under one directory."""

    def __init__(self, directory: Optional[Union[str, Path]] = None) -> None:
        self.directory = Path(directory) if directory is not None else default_runlog_dir()

    @property
    def path(self) -> Path:
        return self.directory / RUNLOG_FILE

    @declares_effects("time", "fs")  # persistence stamp + the store itself
    def append(self, record: Dict[str, Any]) -> Path:
        """Stamp and append one record; returns the store path.

        The git revision and UTC timestamp are stamped here (not in the
        recorder) so in-memory records stay cheap and the stamps reflect
        the moment of persistence.
        """
        stamped = dict(record)
        stamped.setdefault("git_rev", git_revision())
        stamped.setdefault(
            "recorded_at_unix_s",
            time.time(),  # lint: allow(S401) persistence timestamp, host domain
        )
        self.directory.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as stream:
            stream.write(json.dumps(stamped, sort_keys=True) + "\n")
        return self.path

    def append_all(self, records: List[Dict[str, Any]]) -> Optional[Path]:
        path = None
        for record in records:
            path = self.append(record)
        return path

    def records(self) -> List[Dict[str, Any]]:
        """Every parseable record, in append order (corrupt lines skipped)."""
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return []
        out: List[Dict[str, Any]] = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # a torn concurrent append must not poison history
            if isinstance(record, dict):
                out.append(record)
        return out

    def latest_by_experiment(self) -> Dict[str, Dict[str, Any]]:
        """The most recent record per experiment name."""
        latest: Dict[str, Dict[str, Any]] = {}
        for record in self.records():
            name = record.get("experiment")
            if isinstance(name, str):
                latest[name] = record
        return latest

    def __len__(self) -> int:
        return len(self.records())
