"""The differential drift explainer: *why* did two runs disagree.

``python -m repro explain`` aligns two connected-standby runs and ranks
what moved the energy between them.  Two alignment modes:

* **simulate** — re-run two configurations through the tracer (optionally
  one configuration against a perturbed copy of itself, ``--perturb
  KEY=FACTOR``) and decompose the energy delta over the causal
  attribution cube of :func:`repro.obs.causal.attribution_cells`:
  ranked ``(domain x FSM-state x wake-cause)`` contributors whose deltas
  sum to the whole-window energy delta.
* **history** — align the two most recent flight-recorder records of an
  experiment (:class:`repro.obs.runlog.RunLog`) and rank their
  metric-level deltas; no re-simulation, so drift triage works on a
  checkout that only has the run history.

Profiles built by the simulate mode are memoized through the ordinary
:class:`~repro.perf.cache.SimulationCache` (key prefix
``repro.obs.diff.profile``), so explaining the same pair twice is a
cache hit.  Both modes refuse — ``compatible: false`` with an explicit
reason, never a silent apples-to-oranges table — to diff a macro-stepped
run against an exactly-simulated one, using the backend provenance the
runlog records carry.

Ranking is deterministic: contributors order by descending ``|delta|``
with the cell key as tie-break, so CI can assert on the top entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigError, MeasurementError
from repro.obs.runlog import RunLog
from repro.units import PICOSECONDS_PER_SECOND

#: Schema identifier stamped into every explain payload; bump on change.
EXPLAIN_SCHEMA = "repro-explain/1"

#: Cache-key prefix of memoized run profiles (never collides with the
#: controller's ``ODRIPSController.measure`` entries).
PROFILE_CACHE_PREFIX = "repro.obs.diff.profile"

#: ``--perturb`` registry: knob name -> what a factor of it scales.
PERTURBATIONS: Dict[str, str] = {
    "dram-self-refresh": "scale the DRAM self-refresh power budget",
    "external-wake-rate": (
        "scale the external wake rate (enables external wakes on both runs)"
    ),
}


def apply_perturbation(
    name: str,
    factor: float,
    config: Optional[Any] = None,
    workload: Optional[Any] = None,
) -> Tuple[Any, Any, Dict[str, Any]]:
    """A perturbed ``(config, workload, measure_kwargs)`` triple.

    ``measure_kwargs`` must be applied to the *base* run too (e.g. the
    external-wake perturbation needs external wakes enabled on both
    sides), so the two runs differ only in the scaled knob.
    """
    from repro.config import StandbyWorkloadConfig, skylake_config

    config = config if config is not None else skylake_config()
    workload = workload if workload is not None else StandbyWorkloadConfig()
    if name == "dram-self-refresh":
        budget = replace(
            config.budget,
            dram_self_refresh_w=config.budget.dram_self_refresh_w * factor,
        )
        return replace(config, budget=budget), workload, {}
    if name == "external-wake-rate":
        workload = replace(
            workload,
            external_wake_rate_per_hour=workload.external_wake_rate_per_hour
            * factor,
        )
        return config, workload, {"external_wakes": True}
    known = ", ".join(sorted(PERTURBATIONS))
    raise ConfigError(f"unknown perturbation {name!r}; pick one of: {known}")


def parse_perturbation(spec: str) -> Tuple[str, float]:
    """Parse a ``--perturb KEY=FACTOR`` argument."""
    name, sep, factor_text = spec.partition("=")
    if not sep:
        raise ConfigError(
            f"bad perturbation {spec!r}: expected KEY=FACTOR "
            f"(e.g. dram-self-refresh=1.2)"
        )
    try:
        factor = float(factor_text)
    except ValueError as error:
        raise ConfigError(f"bad perturbation factor {factor_text!r}") from error
    if not (math.isfinite(factor) and factor > 0.0):
        raise ConfigError(
            f"bad perturbation factor {factor_text!r}: must be finite and positive"
        )
    if name not in PERTURBATIONS:
        known = ", ".join(sorted(PERTURBATIONS))
        raise ConfigError(f"unknown perturbation {name!r}; pick one of: {known}")
    return name, factor


# --- run profiles -------------------------------------------------------------


@dataclass(frozen=True)
class RunProfile:
    """One traced run digested for differential comparison.

    ``cells`` is the causal attribution cube — joules per ``(domain,
    FSM state, wake cause)`` — and ``metrics`` the scalar measurement
    digest.  Profiles are cached by configuration fingerprint and must
    be treated as immutable.
    """

    label: str
    target: str
    fingerprint: str
    metrics: Dict[str, float]
    cells: Dict[Tuple[str, str, str], float]
    macro: Dict[str, Any]

    @property
    def backend(self) -> str:
        return "macro" if self.macro.get("enabled") else "exact"

    def summary(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "target": self.target,
            "fingerprint": self.fingerprint,
            "backend": self.backend,
            "metrics": dict(self.metrics),
        }


def profile_config(
    target: str,
    cycles: int = 2,
    config: Optional[Any] = None,
    workload: Optional[Any] = None,
    cache: Optional[Any] = None,
    measure_kwargs: Optional[Dict[str, Any]] = None,
) -> RunProfile:
    """Trace one configuration and digest it into a :class:`RunProfile`.

    ``target`` names a traceable configuration (the same registry as
    ``python -m repro trace``).  With a ``cache``, identical profiles
    are returned memoized — the traced simulation runs once per
    fingerprint.  The profile is built from its own observed run, so an
    outer tracer (``--trace``) is never mixed into the cube.
    """
    from repro.core.odrips import ODRIPSController
    from repro.obs.causal import attribution_cells
    from repro.obs.run import TRACE_CONFIGS
    from repro.obs.hook import observe
    from repro.obs.tracer import Tracer
    from repro.perf.fingerprint import fingerprint

    factory = TRACE_CONFIGS.get(target)
    if factory is None:
        known = ", ".join(sorted(TRACE_CONFIGS))
        raise ConfigError(f"unknown explain target {target!r}; pick one of: {known}")
    measure_kwargs = dict(measure_kwargs or {})
    measure_kwargs.setdefault("cycles", cycles)
    controller = ODRIPSController(factory(), config=config, workload=workload)
    key = fingerprint(
        PROFILE_CACHE_PREFIX,
        controller.config,
        controller.techniques,
        controller.workload,
        {"target": target, **measure_kwargs},
    )

    def _build() -> RunProfile:
        tracer = Tracer()
        with observe(tracer=tracer):
            measurement = controller.measure(**measure_kwargs)
        if not tracer.platforms or tracer.window_ps is None:
            raise MeasurementError("profiled run recorded no measurement window")
        platform = tracer.platforms[-1]
        start_ps, end_ps = tracer.window_ps
        cells = attribution_cells(tracer, platform, start_ps, end_ps)
        metrics = {
            "average_power_w": measurement.average_power_w,
            "drips_power_w": measurement.drips_power_w,
            "drips_residency": measurement.drips_residency,
            "active_power_w": measurement.active_power_w,
            "entry_latency_us": measurement.entry_latency_us,
            "exit_latency_us": measurement.exit_latency_us,
            "window_s": (end_ps - start_ps) / PICOSECONDS_PER_SECOND,
            "total_energy_j": math.fsum(cells.values()),
        }
        return RunProfile(
            label=measurement.label,
            target=target,
            fingerprint=key,
            metrics=metrics,
            cells=cells,
            macro=measurement.macro_provenance(),
        )

    if cache is not None:
        return cache.get_or_run(key, _build)
    return _build()


# --- the differ ---------------------------------------------------------------


def _backend_of(macro: Any) -> str:
    if isinstance(macro, dict) and macro.get("enabled"):
        return "macro"
    return "exact"


def _compatibility(base_macro: Any, subject_macro: Any) -> Tuple[bool, str]:
    base = _backend_of(base_macro)
    subject = _backend_of(subject_macro)
    if base == subject:
        return True, ""
    return False, (
        f"refusing to diff runs from different backends (base: {base}, "
        f"subject: {subject}): macro-compiled cycles carry aggregated "
        "attribution, so the decomposition would not be comparable — re-run "
        "both with the same backend"
    )


def _metric_deltas(
    base: Dict[str, Any], subject: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """Scalar metric deltas, ranked by relative magnitude."""
    rows: List[Dict[str, Any]] = []
    for metric in set(base) | set(subject):
        before = base.get(metric)
        after = subject.get(metric)
        if not isinstance(before, (int, float)) or not isinstance(after, (int, float)):
            continue
        delta = float(after) - float(before)
        relative = delta / before if before else None
        rows.append(
            {
                "metric": metric,
                "base": float(before),
                "subject": float(after),
                "delta": delta,
                "relative": relative,
            }
        )
    rows.sort(key=lambda row: (-abs(row["relative"] or 0.0), row["metric"]))
    return rows


def ranked_contributors(
    base_cells: Dict[Tuple[str, str, str], float],
    subject_cells: Dict[Tuple[str, str, str], float],
) -> List[Dict[str, Any]]:
    """Per-cell energy deltas ranked by ``|delta|`` (cell key tie-break).

    ``share`` is each cell's fraction of the total absolute delta, so
    the ranking reads as "this cell explains N% of the movement".
    """
    keys = sorted(set(base_cells) | set(subject_cells))
    deltas = [
        (key, subject_cells.get(key, 0.0) - base_cells.get(key, 0.0)) for key in keys
    ]
    total_abs = math.fsum(abs(delta) for _key, delta in deltas)
    rows = [
        {
            "domain": key[0],
            "state": key[1],
            "cause": key[2],
            "base_j": base_cells.get(key, 0.0),
            "subject_j": subject_cells.get(key, 0.0),
            "delta_j": delta,
            "share": abs(delta) / total_abs if total_abs else 0.0,
        }
        for key, delta in deltas
    ]
    rows.sort(
        key=lambda row: (-abs(row["delta_j"]), row["domain"], row["state"], row["cause"])
    )
    return rows


def diff_profiles(base: RunProfile, subject: RunProfile) -> Dict[str, Any]:
    """The full explain payload for two traced profiles."""
    compatible, reason = _compatibility(base.macro, subject.macro)
    payload: Dict[str, Any] = {
        "schema": EXPLAIN_SCHEMA,
        "mode": "simulate",
        "base": base.summary(),
        "subject": subject.summary(),
        "compatible": compatible,
        "reason": reason,
        "metric_deltas": _metric_deltas(base.metrics, subject.metrics),
        "contributors": [],
        "energy_delta_j": 0.0,
    }
    if compatible:
        payload["contributors"] = ranked_contributors(base.cells, subject.cells)
        payload["energy_delta_j"] = math.fsum(
            row["delta_j"] for row in payload["contributors"]
        )
    return payload


def explain_simulate(
    target: str,
    target2: Optional[str] = None,
    perturb: Optional[str] = None,
    cycles: int = 2,
    cache: Optional[Any] = None,
) -> Dict[str, Any]:
    """Simulate-mode explain: two targets, or one target vs a perturbation."""
    if perturb is not None:
        name, factor = parse_perturbation(perturb)
        config, workload, measure_kwargs = apply_perturbation(name, factor)
        base = profile_config(
            target, cycles=cycles, cache=cache, measure_kwargs=measure_kwargs
        )
        subject = profile_config(
            target2 or target,
            cycles=cycles,
            config=config,
            workload=workload,
            cache=cache,
            measure_kwargs=measure_kwargs,
        )
        payload = diff_profiles(base, subject)
        payload["perturbation"] = {"key": name, "factor": factor}
        return payload
    if target2 is None:
        raise ConfigError(
            "explain needs two runs: a second target, --perturb KEY=FACTOR, "
            "or --history"
        )
    base = profile_config(target, cycles=cycles, cache=cache)
    subject = profile_config(target2, cycles=cycles, cache=cache)
    return diff_profiles(base, subject)


# --- history mode -------------------------------------------------------------


def _record_summary(record: Dict[str, Any]) -> Dict[str, Any]:
    metrics = record.get("metrics")
    return {
        "label": str(record.get("experiment", "")),
        "target": str(record.get("experiment", "")),
        "fingerprint": str(record.get("fingerprint", "")),
        "backend": _backend_of(record.get("macro")),
        "metrics": dict(metrics) if isinstance(metrics, dict) else {},
        "git_rev": record.get("git_rev"),
        "recorded_at_unix_s": record.get("recorded_at_unix_s"),
    }


def explain_history(
    experiment: str, runlog: Optional[RunLog] = None
) -> Dict[str, Any]:
    """History-mode explain: the two most recent records of an experiment.

    Raises :class:`~repro.errors.MeasurementError` with fewer than two
    records — drift between runs needs two runs.
    """
    runlog = runlog if runlog is not None else RunLog()
    records = [
        record
        for record in runlog.records()
        if record.get("experiment") == experiment
    ]
    if len(records) < 2:
        raise MeasurementError(
            f"need two recorded runs of {experiment!r} in {runlog.path} "
            f"(found {len(records)}); run the experiment twice or use the "
            "simulate mode"
        )
    base, subject = records[-2], records[-1]
    compatible, reason = _compatibility(base.get("macro"), subject.get("macro"))
    base_summary = _record_summary(base)
    subject_summary = _record_summary(subject)
    return {
        "schema": EXPLAIN_SCHEMA,
        "mode": "history",
        "base": base_summary,
        "subject": subject_summary,
        "compatible": compatible,
        "reason": reason,
        "config_drift": base_summary["fingerprint"] != subject_summary["fingerprint"],
        "metric_deltas": (
            _metric_deltas(base_summary["metrics"], subject_summary["metrics"])
            if compatible
            else []
        ),
        "contributors": [],
        "energy_delta_j": 0.0,
    }


def explain_summary(
    experiment: str, runlog: Optional[RunLog] = None, top: int = 3
) -> Optional[Dict[str, Any]]:
    """Compact history-mode digest for embedding in a drift verdict.

    ``None`` when the history holds fewer than two runs of the
    experiment — the watchdog then reports drift without an explainer,
    never an error.
    """
    try:
        payload = explain_history(experiment, runlog=runlog)
    except MeasurementError:
        return None
    return {
        "base_fingerprint": payload["base"]["fingerprint"],
        "subject_fingerprint": payload["subject"]["fingerprint"],
        "config_drift": payload["config_drift"],
        "compatible": payload["compatible"],
        "reason": payload["reason"],
        "top": payload["metric_deltas"][:top],
    }


# --- payload validation -------------------------------------------------------


def _expect(value: Any, kinds: Tuple[type, ...], where: str) -> Iterator[str]:
    if not isinstance(value, kinds) or isinstance(value, bool) and bool not in kinds:
        names = "/".join(kind.__name__ for kind in kinds)
        yield f"{where}: expected {names}, got {type(value).__name__}"


def _check_run_summary(summary: Any, where: str) -> Iterator[str]:
    yield from _expect(summary, (dict,), where)
    if not isinstance(summary, dict):
        return
    for key in ("label", "target", "fingerprint", "backend", "metrics"):
        if key not in summary:
            yield f"{where}: missing key {key!r}"
    for key in ("label", "target", "fingerprint"):
        if key in summary:
            yield from _expect(summary[key], (str,), f"{where}.{key}")
    if summary.get("backend") not in (None, "exact", "macro"):
        yield f"{where}.backend: expected 'exact' or 'macro'"
    metrics = summary.get("metrics")
    if isinstance(metrics, dict):
        for metric, value in metrics.items():
            yield from _expect(value, (int, float), f"{where}.metrics[{metric!r}]")
    elif metrics is not None:
        yield f"{where}.metrics: expected object"


def _check_contributor(row: Any, where: str) -> Iterator[str]:
    yield from _expect(row, (dict,), where)
    if not isinstance(row, dict):
        return
    for key in ("domain", "state", "cause"):
        if key not in row:
            yield f"{where}: missing key {key!r}"
        elif not isinstance(row[key], str):
            yield f"{where}.{key}: expected str"
    for key in ("base_j", "subject_j", "delta_j", "share"):
        if key not in row:
            yield f"{where}: missing key {key!r}"
        else:
            yield from _expect(row[key], (int, float), f"{where}.{key}")
    share = row.get("share")
    if isinstance(share, (int, float)) and not 0.0 <= share <= 1.0:
        yield f"{where}.share: expected a fraction in [0, 1], got {share}"


def validate_explain_payload(payload: Any) -> List[str]:
    """Every structural problem in a ``repro explain --json`` payload.

    Returns an empty list when the payload conforms — the same contract
    as :func:`repro.check.schema.validate_check_payload`, so CI jobs can
    gate on either with one idiom.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"payload: expected object, got {type(payload).__name__}"]
    if payload.get("schema") != EXPLAIN_SCHEMA:
        problems.append(
            f"schema: expected {EXPLAIN_SCHEMA}, got {payload.get('schema')!r}"
        )
    if payload.get("mode") not in ("simulate", "history"):
        problems.append("mode: expected 'simulate' or 'history'")
    for key in ("base", "subject"):
        if key not in payload:
            problems.append(f"payload: missing key {key!r}")
        else:
            problems.extend(_check_run_summary(payload[key], key))
    if "compatible" not in payload:
        problems.append("payload: missing key 'compatible'")
    else:
        problems.extend(_expect(payload["compatible"], (bool,), "compatible"))
    if "reason" in payload:
        problems.extend(_expect(payload["reason"], (str,), "reason"))
    if payload.get("compatible") is False and not payload.get("reason"):
        problems.append("reason: incompatible payload carries no reason")
    deltas = payload.get("metric_deltas")
    if not isinstance(deltas, list):
        problems.append("metric_deltas: expected list")
    else:
        for index, row in enumerate(deltas):
            where = f"metric_deltas[{index}]"
            if not isinstance(row, dict):
                problems.append(f"{where}: expected object")
                continue
            for key in ("metric", "base", "subject", "delta"):
                if key not in row:
                    problems.append(f"{where}: missing key {key!r}")
    contributors = payload.get("contributors")
    if not isinstance(contributors, list):
        problems.append("contributors: expected list")
    else:
        for index, row in enumerate(contributors):
            problems.extend(_check_contributor(row, f"contributors[{index}]"))
        shares = [
            row["share"]
            for row in contributors
            if isinstance(row, dict) and isinstance(row.get("share"), (int, float))
        ]
        if any(share > 0 for share in shares) and not math.isclose(
            sum(shares), 1.0, abs_tol=1e-6
        ):
            problems.append(
                f"contributors: shares sum to {sum(shares):.6f}, expected 1"
            )
    if "energy_delta_j" in payload:
        problems.extend(
            _expect(payload["energy_delta_j"], (int, float), "energy_delta_j")
        )
    if payload.get("mode") == "simulate" and "energy_delta_j" not in payload:
        problems.append("payload: missing key 'energy_delta_j'")
    return problems


# --- rendering ----------------------------------------------------------------


def render_explain(payload: Dict[str, Any], limit: int = 10) -> str:
    """Aligned terminal rendering of an explain payload."""
    from repro.analysis.report import format_table

    sections: List[str] = []
    base = payload["base"]
    subject = payload["subject"]
    header = (
        f"explain [{payload['mode']}]: {base.get('label') or base.get('target')} "
        f"({base.get('backend')}) -> "
        f"{subject.get('label') or subject.get('target')} "
        f"({subject.get('backend')})"
    )
    perturbation = payload.get("perturbation")
    if perturbation:
        header += f"  [perturb {perturbation['key']} x{perturbation['factor']:g}]"
    sections.append(header)
    if not payload["compatible"]:
        sections.append(f"INCOMPATIBLE: {payload['reason']}")
        return "\n\n".join(sections)
    if payload.get("config_drift"):
        sections.append(
            "note: the two records ran different configurations "
            "(fingerprints differ)"
        )
    deltas = payload["metric_deltas"]
    if deltas:
        rows = [
            [
                row["metric"],
                f"{row['base']:.6g}",
                f"{row['subject']:.6g}",
                f"{row['delta']:+.4g}",
                "-" if row["relative"] is None else f"{row['relative']:+.2%}",
            ]
            for row in deltas
        ]
        sections.append(
            format_table(
                ["metric", "base", "subject", "delta", "relative"],
                rows,
                title="Metric deltas",
            )
        )
    contributors = payload["contributors"]
    if contributors:
        shown = contributors[:limit]
        rows = [
            [
                row["domain"],
                row["state"],
                row["cause"],
                f"{row['delta_j'] * 1e3:+,.3f} mJ",
                f"{row['share']:.1%}",
            ]
            for row in shown
        ]
        if len(contributors) > len(shown):
            tail = contributors[len(shown):]
            tail_j = math.fsum(row["delta_j"] for row in tail)
            rows.append(
                [f"(+{len(tail)} more)", "", "", f"{tail_j * 1e3:+,.3f} mJ", ""]
            )
        sections.append(
            format_table(
                ["domain", "state", "cause", "delta", "share of |delta|"],
                rows,
                title=(
                    "Energy-delta contributors "
                    f"(total {payload['energy_delta_j'] * 1e3:+,.3f} mJ)"
                ),
            )
        )
        top = contributors[0]
        sections.append(
            f"top contributor: {top['domain']} x {top['state']} x {top['cause']} "
            f"({top['delta_j'] * 1e3:+,.3f} mJ, {top['share']:.1%} of the movement)"
        )
    return "\n\n".join(sections)
