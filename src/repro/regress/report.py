"""The golden-number regression watchdog: ``python -m repro report``.

Joins the two telemetry stores the repo accumulates — the flight
recorder's run history (:class:`repro.obs.runlog.RunLog`, one JSON
record per experiment run) and the microbenchmark figures in
``BENCH_perf.json`` — and applies the tolerance policies of
:mod:`repro.regress.policies`:

* every registered experiment's **latest** recorded metrics are compared
  against the paper's golden values (Fig. 1(b)/2/6, Sec. 4.1.3/6.3);
* every benchmark figure with a policy is held to its speedup floor or
  overhead ceiling.

The report renders as an aligned terminal table, ``--json`` for
machines, or ``--html`` for a static page; the process exits nonzero
exactly when a check drifted out of tolerance, so CI gets one gate over
both correctness-vs-paper and the performance trajectory.  Experiments
with no recorded run and benchmark figures not present in the file are
reported as *missing*, never as drift — a fresh checkout that has only
run ``fig2`` must still pass.  A figure the harness recorded with a
``policy_skip`` reason (e.g. a parallel-speedup floor measured with
one usable CPU, where every sweep runs in-process) is likewise skipped
with that reason surfaced.

A ``--baseline`` JSON file overrides individual tolerances (see
:mod:`repro.regress.policies` for the format).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from html import escape as esc
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.analysis.report import format_table
from repro.errors import ConfigError
from repro.obs.runlog import RunLog
from repro.regress.policies import bench_policies, golden_policies

#: Schema identifier stamped into JSON reports; bump on breaking change.
REPORT_SCHEMA = "repro-regress/2"

#: Where the benchmark harness writes its figures (repo root).
DEFAULT_BENCH_PATH = "BENCH_perf.json"

EXIT_OK = 0
EXIT_DRIFT = 1
EXIT_USAGE = 2


def load_baseline(path: Union[str, Path]) -> Dict[str, Any]:
    """Parse a ``--baseline`` override file (see :mod:`.policies`)."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as error:
        raise ConfigError(f"cannot read baseline {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise ConfigError(f"baseline {path} is not valid JSON: {error}") from error
    if not isinstance(data, dict):
        raise ConfigError(f"baseline {path} must be a JSON object")
    unknown = sorted(set(data) - {"goldens", "benches"})
    if unknown:
        raise ConfigError(
            f"baseline {path}: unknown top-level key(s) {', '.join(unknown)}; "
            "allowed: goldens, benches"
        )
    return data


def _load_bench(path: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """The ``benches`` table of ``BENCH_perf.json``, or ``None`` if absent."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError:
        return None
    except json.JSONDecodeError as error:
        raise ConfigError(f"bench file {path} is not valid JSON: {error}") from error
    benches = data.get("benches") if isinstance(data, dict) else None
    return benches if isinstance(benches, dict) else {}


def build_report(
    runlog: Optional[RunLog] = None,
    bench_path: Union[str, Path] = DEFAULT_BENCH_PATH,
    baseline: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Evaluate every policy against the stores; returns a JSON-able dict."""
    runlog = runlog if runlog is not None else RunLog()
    baseline = baseline or {}
    latest = runlog.latest_by_experiment()
    findings: List[Dict[str, Any]] = []
    missing: List[Dict[str, Any]] = []

    goldens = golden_policies(baseline.get("goldens"))
    for experiment in sorted(goldens):
        record = latest.get(experiment)
        if record is None:
            missing.append(
                {
                    "source": "golden",
                    "experiment": experiment,
                    "reason": "no run recorded (run the experiment first)",
                }
            )
            continue
        metrics = record.get("metrics")
        metrics = metrics if isinstance(metrics, dict) else {}
        for golden in goldens[experiment]:
            measured = metrics.get(golden.key)
            if not isinstance(measured, (int, float)):
                missing.append(
                    {
                        "source": "golden",
                        "experiment": experiment,
                        "key": golden.key,
                        "reason": "metric absent from the latest recorded run",
                    }
                )
                continue
            finding: Dict[str, Any] = {
                "source": "golden",
                "experiment": experiment,
                "key": golden.key,
            }
            finding.update(golden.evaluate(float(measured)))
            finding["fingerprint"] = record.get("fingerprint")
            finding["git_rev"] = record.get("git_rev")
            findings.append(finding)

    benches = _load_bench(bench_path)
    for policy in bench_policies(baseline.get("benches")):
        if benches is None:
            missing.append(
                {
                    "source": "bench",
                    "bench": policy.bench,
                    "metric": policy.metric,
                    "reason": f"bench file {bench_path} not found",
                }
            )
            continue
        figure = benches.get(policy.bench, {})
        skip_reason = figure.get("policy_skip") if isinstance(figure, dict) else None
        if isinstance(skip_reason, str) and skip_reason:
            missing.append(
                {
                    "source": "bench",
                    "bench": policy.bench,
                    "metric": policy.metric,
                    "reason": f"harness opted out: {skip_reason}",
                }
            )
            continue
        value = figure.get(policy.metric) if isinstance(figure, dict) else None
        if not isinstance(value, (int, float)):
            missing.append(
                {
                    "source": "bench",
                    "bench": policy.bench,
                    "metric": policy.metric,
                    "reason": "figure absent from the bench file (re-run the harness)",
                }
            )
            continue
        finding = {"source": "bench"}
        finding.update(policy.evaluate(float(value)))
        findings.append(finding)

    _attach_explains(findings, runlog)
    drift = [finding for finding in findings if not finding["within"]]
    return {
        "schema": REPORT_SCHEMA,
        "runlog": str(runlog.path),
        "records": len(runlog),
        "bench_path": str(bench_path),
        "findings": findings,
        "missing": missing,
        "checked": len(findings),
        "drift": len(drift),
        "ok": not drift,
    }


def _attach_explains(findings: List[Dict[str, Any]], runlog: RunLog) -> None:
    """Embed a drift explainer into every drifted golden finding.

    The digest is the history-mode ``repro explain`` between the
    experiment's latest two records (top metric deltas, backend
    compatibility, config-fingerprint drift) — so the watchdog's verdict
    says not just *that* a golden drifted but what moved since the last
    recorded run.  With fewer than two records the finding stays bare.
    """
    from repro.obs.diff import explain_summary

    summaries: Dict[str, Optional[Dict[str, Any]]] = {}
    for finding in findings:
        if finding.get("source") != "golden" or finding["within"]:
            continue
        experiment = finding["experiment"]
        if experiment not in summaries:
            summaries[experiment] = explain_summary(experiment, runlog=runlog)
        if summaries[experiment] is not None:
            finding["explain"] = summaries[experiment]


# --- rendering ----------------------------------------------------------------


def _status(within: bool) -> str:
    return "ok" if within else "DRIFT"


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def render_text(report: Dict[str, Any]) -> str:
    """Aligned terminal rendering of a report."""
    sections: List[str] = []
    golden_rows = [
        [
            finding["experiment"],
            finding["key"],
            _fmt(finding["paper"]),
            _fmt(finding["measured"]),
            f"{finding['delta']:+.4g}",
            f"{finding['kind']} {_fmt(finding['tolerance'])}",
            _status(finding["within"]),
        ]
        for finding in report["findings"]
        if finding["source"] == "golden"
    ]
    if golden_rows:
        sections.append(
            format_table(
                ["experiment", "metric", "paper", "measured", "delta",
                 "tolerance", "status"],
                golden_rows,
                title="Paper-fidelity goldens (latest recorded runs)",
            )
        )
    bench_rows = [
        [
            finding["bench"],
            finding["metric"],
            _fmt(finding["value"]),
            f"{finding['kind']} {_fmt(finding['limit'])}",
            _status(finding["within"]),
        ]
        for finding in report["findings"]
        if finding["source"] == "bench"
    ]
    if bench_rows:
        sections.append(
            format_table(
                ["bench", "figure", "value", "policy", "status"],
                bench_rows,
                title=f"Benchmark policies ({report['bench_path']})",
            )
        )
    explain_lines = _explain_lines(report)
    if explain_lines:
        sections.append(
            "Drift explainers (latest vs previous recorded run)\n"
            + "\n".join(f"  {line}" for line in explain_lines)
        )
    if report["missing"]:
        rows = [
            [
                entry["source"],
                entry.get("experiment") or entry.get("bench", ""),
                entry.get("key") or entry.get("metric", ""),
                entry["reason"],
            ]
            for entry in report["missing"]
        ]
        sections.append(
            format_table(
                ["source", "subject", "metric", "why it was skipped"],
                rows,
                title="Skipped checks (missing data, not drift)",
            )
        )
    verdict = "OK" if report["ok"] else "DRIFT"
    sections.append(
        f"{verdict}: {report['checked']} check(s), {report['drift']} drift(s), "
        f"{len(report['missing'])} skipped - {report['records']} run record(s) "
        f"in {report['runlog']}"
    )
    return "\n\n".join(sections)


def _explain_lines(report: Dict[str, Any]) -> List[str]:
    """One digest line per drifted experiment that has an explainer."""
    explains: Dict[str, Dict[str, Any]] = {}
    for finding in report["findings"]:
        explain = finding.get("explain")
        if isinstance(explain, dict):
            explains.setdefault(finding["experiment"], explain)
    lines: List[str] = []
    for experiment in sorted(explains):
        explain = explains[experiment]
        if not explain.get("compatible", True):
            lines.append(f"{experiment}: {explain.get('reason', 'incompatible runs')}")
            continue
        note = " [config changed]" if explain.get("config_drift") else ""
        tops = []
        for row in explain.get("top", []):
            entry = f"{row['metric']} {row['delta']:+.4g}"
            if row.get("relative") is not None:
                entry += f" ({row['relative']:+.2%})"
            tops.append(entry)
        lines.append(
            f"{experiment}{note}: "
            + (", ".join(tops) if tops else "no metric movement between runs")
        )
    return lines


#: The page style: monospace, bordered tables.
_PAGE_STYLE = (
    "body{font-family:monospace;margin:2em}"
    "table{border-collapse:collapse;margin:1em 0}"
    "td,th{border:1px solid #999;padding:0.3em 0.8em;text-align:left}"
)


def html_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """A bordered table with every header and cell escaped."""
    head = "".join(f"<th>{esc(str(header))}</th>" for header in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{esc(str(cell))}</td>" for cell in row) + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def page(title: str, body_parts: Iterable[str]) -> str:
    """The page shell: doctype, charset, style, title heading."""
    return "".join(
        [
            "<!DOCTYPE html><html><head><meta charset='utf-8'>",
            f"<title>{esc(title)}</title>",
            f"<style>{_PAGE_STYLE}</style></head><body>",
            f"<h1>{esc(title)}</h1>",
            *body_parts,
            "</body></html>",
        ]
    )


def render_html(report: Dict[str, Any]) -> str:
    """Minimal static HTML page for the report (no external assets)."""
    golden_rows = [
        [f["experiment"], f["key"], _fmt(f["paper"]), _fmt(f["measured"]),
         f"{f['delta']:+.4g}", f"{f['kind']} {_fmt(f['tolerance'])}",
         _status(f["within"])]
        for f in report["findings"] if f["source"] == "golden"
    ]
    bench_rows = [
        [f["bench"], f["metric"], _fmt(f["value"]),
         f"{f['kind']} {_fmt(f['limit'])}", _status(f["within"])]
        for f in report["findings"] if f["source"] == "bench"
    ]
    missing_rows = [
        [entry["source"], entry.get("experiment") or entry.get("bench", ""),
         entry.get("key") or entry.get("metric", ""), entry["reason"]]
        for entry in report["missing"]
    ]
    verdict = "OK" if report["ok"] else "DRIFT"
    parts = [
        f"<p>{report['checked']} check(s), {report['drift']} drift(s), "
        f"{len(report['missing'])} skipped; {report['records']} run record(s) "
        f"in <code>{esc(report['runlog'])}</code></p>",
    ]
    if golden_rows:
        parts.append("<h2>Paper-fidelity goldens</h2>")
        parts.append(html_table(
            ["experiment", "metric", "paper", "measured", "delta", "tolerance",
             "status"], golden_rows))
    if bench_rows:
        parts.append(f"<h2>Benchmark policies ({esc(report['bench_path'])})</h2>")
        parts.append(html_table(["bench", "figure", "value", "policy", "status"],
                                bench_rows))
    explain_lines = _explain_lines(report)
    if explain_lines:
        parts.append("<h2>Drift explainers</h2><ul>")
        parts.extend(f"<li>{esc(line)}</li>" for line in explain_lines)
        parts.append("</ul>")
    if missing_rows:
        parts.append("<h2>Skipped checks</h2>")
        parts.append(html_table(["source", "subject", "metric", "reason"],
                                missing_rows))
    return page(f"repro regression report: {verdict}", parts)


def cmd_report(args: argparse.Namespace) -> int:
    """The ``python -m repro report`` entry point."""
    import sys

    baseline = None
    try:
        if args.baseline:
            baseline = load_baseline(args.baseline)
        report = build_report(
            bench_path=args.bench or DEFAULT_BENCH_PATH, baseline=baseline
        )
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        print(render_text(report))
    if args.html:
        target = Path(args.html)
        target.write_text(render_html(report), encoding="utf-8")
        if not args.json:
            print(f"\nHTML report written to {target}")
    return EXIT_OK if report["ok"] else EXIT_DRIFT
