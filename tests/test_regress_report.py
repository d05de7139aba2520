"""Regression-watchdog tests: policies, report building, CLI exit codes."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.obs.runlog import RUNLOG_DIR_ENV, RunLog
from repro.regress import (
    BENCH_POLICIES,
    EXIT_DRIFT,
    EXIT_OK,
    EXIT_USAGE,
    bench_policies,
    build_report,
    golden_policies,
    load_baseline,
    render_html,
    render_text,
)
from repro.regress.report import esc, html_table, page


@pytest.fixture
def store(tmp_path, monkeypatch):
    """An isolated flight-recorder store (env-selected) plus its RunLog."""
    directory = tmp_path / "runs"
    monkeypatch.setenv(RUNLOG_DIR_ENV, str(directory))
    return RunLog(directory)


def fig2_record(drips_power_mw: float = 60.0) -> dict:
    return {
        "experiment": "fig2",
        "fingerprint": "f" * 64,
        "metrics": {
            "average_power_mw": 74.4,
            "drips_power_mw": drips_power_mw,
            "active_power_w": 3.04,
            "drips_residency": 0.995,
        },
    }


def bench_file(tmp_path, **overrides):
    figures = {
        "analyzer_fast_path": {"speedup": 1500.0},
        "memoized_experiment": {"speedup": 37.0},
        "parallel_sweep_fig6b": {"speedup": 2.0},
        "tracer_overhead_fig2": {"enabled_overhead_frac": 0.08},
    }
    for bench, fields in overrides.items():
        figures.setdefault(bench, {}).update(fields)
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps({"schema": "repro-bench-perf/1", "benches": figures}))
    return path


class TestPolicies:
    def test_golden_catalog_covers_registered_drivers(self):
        catalog = golden_policies()
        assert "fig2" in catalog
        assert "table1" not in catalog  # golden-exempt
        keys = {golden.key for golden in catalog["fig2"]}
        assert "drips_power_mw" in keys

    def test_golden_override_replaces_fields(self):
        catalog = golden_policies(
            {"fig2": {"drips_power_mw": {"paper": 90.0, "tolerance": 0.1}}}
        )
        golden = next(g for g in catalog["fig2"] if g.key == "drips_power_mw")
        assert golden.paper == 90.0
        assert golden.tolerance == 0.1
        assert golden.kind == "absolute"  # untouched field survives

    def test_golden_override_rejects_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown baseline field"):
            golden_policies({"fig2": {"drips_power_mw": {"papr": 90.0}}})

    def test_golden_override_rejects_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown kind"):
            golden_policies({"fig2": {"drips_power_mw": {"kind": "fuzzy"}}})

    def test_bench_catalog_and_override(self):
        assert any(p.bench == "tracer_overhead_fig2" for p in BENCH_POLICIES)
        policies = bench_policies(
            {"analyzer_fast_path": {"speedup": {"limit": 99999.0}}}
        )
        policy = next(p for p in policies
                      if (p.bench, p.metric) == ("analyzer_fast_path", "speedup"))
        assert policy.limit == 99999.0

    def test_bench_policy_floor_and_ceiling(self):
        floor = next(p for p in BENCH_POLICIES if p.kind == "floor")
        assert floor.evaluate(floor.limit + 1.0)["within"] is True
        assert floor.evaluate(floor.limit - 1.0)["within"] is False
        ceiling = next(p for p in BENCH_POLICIES if p.kind == "ceiling")
        assert ceiling.evaluate(ceiling.limit - 0.01)["within"] is True
        assert ceiling.evaluate(ceiling.limit + 0.01)["within"] is False


class TestBuildReport:
    def test_clean_report(self, tmp_path, store):
        store.append(fig2_record())
        report = build_report(bench_path=bench_file(tmp_path))
        assert report["ok"] is True
        assert report["drift"] == 0
        fig2 = [f for f in report["findings"] if f.get("experiment") == "fig2"]
        assert len(fig2) == 4
        assert all(f["within"] for f in fig2)
        assert any(f["source"] == "bench" for f in report["findings"])

    def test_perturbed_golden_drifts(self, tmp_path, store):
        store.append(fig2_record())
        report = build_report(
            bench_path=bench_file(tmp_path),
            baseline={"goldens": {"fig2": {"drips_power_mw": {"paper": 90.0}}}},
        )
        assert report["ok"] is False
        drifted = [f for f in report["findings"] if not f["within"]]
        assert [(f["experiment"], f["key"]) for f in drifted] == [
            ("fig2", "drips_power_mw")
        ]

    def test_out_of_tolerance_metric_drifts(self, tmp_path, store):
        store.append(fig2_record(drips_power_mw=75.0))
        report = build_report(bench_path=bench_file(tmp_path))
        assert report["ok"] is False

    def test_latest_record_wins(self, tmp_path, store):
        store.append(fig2_record(drips_power_mw=75.0))  # old, drifted
        store.append(fig2_record(drips_power_mw=60.0))  # latest, clean
        report = build_report(bench_path=bench_file(tmp_path))
        assert report["ok"] is True

    def test_unrun_experiments_are_skipped_not_drift(self, tmp_path, store):
        store.append(fig2_record())
        report = build_report(bench_path=bench_file(tmp_path))
        skipped = {entry.get("experiment") for entry in report["missing"]}
        assert "fig6a" in skipped
        assert report["ok"] is True

    def test_missing_bench_file_skips_bench_checks(self, store):
        store.append(fig2_record())
        report = build_report(bench_path="does-not-exist.json")
        assert report["ok"] is True
        assert all(f["source"] != "bench" for f in report["findings"])
        assert any(e["source"] == "bench" for e in report["missing"])

    def test_bench_below_floor_drifts(self, tmp_path, store):
        store.append(fig2_record())
        bench = bench_file(tmp_path, parallel_sweep_fig6b={"speedup": 0.9})
        report = build_report(bench_path=bench)
        drifted = [f for f in report["findings"] if not f["within"]]
        assert [(f["bench"], f["metric"]) for f in drifted] == [
            ("parallel_sweep_fig6b", "speedup")
        ]

    @pytest.mark.parametrize("wall_s, drifts", [(0.072, False), (0.5, True)])
    def test_bulk_mee_wall_ceiling(self, tmp_path, store, wall_s, drifts):
        """A slowdown of both MEE paths alike keeps the speedup but trips the wall."""
        store.append(fig2_record())
        bench = bench_file(tmp_path, mee_bulk_context_200kb={"wall_s": wall_s, "speedup": 5.9})
        report = build_report(bench_path=bench)
        drifted = [(f["bench"], f["metric"]) for f in report["findings"] if not f["within"]]
        assert drifted == ([("mee_bulk_context_200kb", "wall_s")] if drifts else [])

    def test_bench_policy_skip_marker_skips_not_drifts(self, tmp_path, store):
        """A single-CPU harness records speedup with a policy_skip reason."""
        store.append(fig2_record())
        bench = bench_file(
            tmp_path,
            parallel_sweep_fig6b={
                "speedup": 0.9,
                "cpu_count": 1,
                "policy_skip": "single-CPU host: the speedup floor does not apply",
            },
        )
        report = build_report(bench_path=bench)
        assert report["ok"] is True
        skipped = [e for e in report["missing"] if e.get("bench") == "parallel_sweep_fig6b"]
        assert len(skipped) == 1
        assert "single-CPU host" in skipped[0]["reason"]

    def test_metric_absent_from_record_is_skipped(self, tmp_path, store):
        record = fig2_record()
        del record["metrics"]["drips_residency"]
        store.append(record)
        report = build_report(bench_path=bench_file(tmp_path))
        assert report["ok"] is True
        assert any(entry.get("key") == "drips_residency"
                   for entry in report["missing"])


class TestRendering:
    def test_text_verdict_lines(self, tmp_path, store):
        store.append(fig2_record())
        report = build_report(bench_path=bench_file(tmp_path))
        text = render_text(report)
        assert "Paper-fidelity goldens" in text
        assert "Benchmark policies" in text
        assert text.strip().splitlines()[-1].startswith("OK:")

    def test_text_flags_drift(self, tmp_path, store):
        store.append(fig2_record(drips_power_mw=75.0))
        text = render_text(build_report(bench_path=bench_file(tmp_path)))
        assert "DRIFT" in text

    def test_html_renders_and_escapes(self, tmp_path, store):
        store.append(fig2_record())
        report = build_report(bench_path=bench_file(tmp_path))
        report["runlog"] = "<script>alert(1)</script>"
        html = render_html(report)
        assert html.startswith("<!DOCTYPE html>")
        assert "<script>alert(1)</script>" not in html
        assert "drips_power_mw" in html


class TestHtmlHelpers:
    def test_html_table_escapes(self):
        table = html_table(["<h>"], [["<va&lue>", "<b>x</b>"]])
        assert "&lt;h&gt;" in table
        assert "&lt;va&amp;lue&gt;" in table
        assert "&lt;b&gt;x&lt;/b&gt;" in table
        assert "<b>" not in table

    def test_page_shell(self):
        doc = page("T&T", ["<p>x</p>"])
        assert doc.startswith("<!DOCTYPE html>")
        assert "T&amp;T" in doc
        assert "<p>x</p>" in doc
        assert esc("a<b") == "a&lt;b"


class TestBaselineLoading:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"goldens": {}}')
        assert load_baseline(path) == {"goldens": {}}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_baseline(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_baseline(path)

    def test_unknown_top_level_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"golden": {}}')
        with pytest.raises(ConfigError, match="unknown top-level"):
            load_baseline(path)


class TestCli:
    def test_report_json_roundtrip(self, tmp_path, store, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        bench_file(tmp_path)
        assert main(["fig2", "--cycles", "1"]) == EXIT_OK
        capsys.readouterr()
        assert main(["report", "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro-regress/2"
        assert "advisories" not in report
        assert report["ok"] is True
        fig2 = [f for f in report["findings"] if f.get("experiment") == "fig2"]
        assert len(fig2) == 4
        assert all(len(f["fingerprint"]) == 64 for f in fig2)
        # tmp_path is not a repo, so the stamp is None — but it is carried
        assert all("git_rev" in f for f in fig2)

    def test_report_exit_nonzero_on_perturbed_golden(
        self, tmp_path, store, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        store.append(fig2_record())
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(
            {"goldens": {"fig2": {"drips_power_mw": {"paper": 90.0}}}}
        ))
        assert main(["report", "--baseline", str(baseline)]) == EXIT_DRIFT
        assert "DRIFT" in capsys.readouterr().out

    def test_report_html_output(self, tmp_path, store, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        store.append(fig2_record())
        page = tmp_path / "report.html"
        assert main(["report", "--html", str(page)]) == EXIT_OK
        assert page.read_text().startswith("<!DOCTYPE html>")

    def test_report_bad_baseline_is_usage_error(
        self, tmp_path, store, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["report", "--baseline", str(bad)]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_no_runlog_opts_out(self, tmp_path, store, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["fig2", "--cycles", "1", "--no-runlog"]) == 0
        assert len(store) == 0

    def test_runs_are_recorded_by_default(self, tmp_path, store, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["fig2", "--cycles", "1"]) == 0
        records = store.records()
        assert [r["experiment"] for r in records] == ["fig2"]
        assert records[0]["git_rev"] is None  # tmp_path is not a repo
