"""Differential explainer tests: perturbations, diffs, history, CLI.

Exercises ``repro.obs.diff`` end to end: the perturbation registry and
its parser, deterministic seeded-fault ranking (a +20% DRAM self-refresh
budget must pin board x drips x steady-idle as the top contributor),
profile caching, the macro-vs-exact refusal, history mode over the
flight recorder, the drift-verdict embedding in ``repro report``, the
runlog backend provenance, the ledger rollup row, and the ``repro
explain`` exit-code contract.
"""

from __future__ import annotations

import json

import pytest

from repro import cli, obs
from repro.errors import ConfigError, MeasurementError
from repro.obs.diff import (
    EXPLAIN_SCHEMA,
    PERTURBATIONS,
    RunProfile,
    apply_perturbation,
    diff_profiles,
    explain_history,
    explain_simulate,
    explain_summary,
    parse_perturbation,
    ranked_contributors,
    render_explain,
    validate_explain_payload,
)
from repro.obs.runlog import RUNLOG_DIR_ENV, RunLog, RunRecorder
from repro.perf.cache import SimulationCache
from repro.regress.report import build_report, render_text

PERTURBED_CELL = ("board", "drips", "steady-idle")


@pytest.fixture(scope="module")
def perturbed():
    """One seeded-fault explain payload (shared: the runs are real)."""
    return explain_simulate("fig2", perturb="dram-self-refresh=1.2", cycles=1)


@pytest.fixture
def store(tmp_path, monkeypatch):
    directory = tmp_path / "runs"
    monkeypatch.setenv(RUNLOG_DIR_ENV, str(directory))
    return RunLog(directory)


def fig2_record(drips_power_mw=60.0, fingerprint="f" * 64, macro=None):
    record = {
        "experiment": "fig2",
        "fingerprint": fingerprint,
        "metrics": {
            "average_power_mw": 74.4,
            "drips_power_mw": drips_power_mw,
            "active_power_w": 3.04,
            "drips_residency": 0.995,
        },
    }
    if macro is not None:
        record["macro"] = macro
    return record


def make_profile(macro_enabled=False, fingerprint="p-exact", cells=None):
    return RunProfile(
        label="fig2",
        target="fig2",
        fingerprint=fingerprint,
        metrics={"average_power_w": 0.0744},
        cells=dict(cells or {PERTURBED_CELL: 1.0}),
        macro={
            "enabled": macro_enabled,
            "cycles_compiled": 9 if macro_enabled else 0,
            "steps": 1 if macro_enabled else 0,
        },
    )


class TestPerturbations:
    def test_parse_roundtrip(self):
        assert parse_perturbation("dram-self-refresh=1.2") == (
            "dram-self-refresh",
            1.2,
        )

    @pytest.mark.parametrize(
        "spec",
        [
            "dram-self-refresh",
            "dram-self-refresh=lots",
            "bogus=2.0",
            "dram-self-refresh=nan",
            "dram-self-refresh=inf",
            "dram-self-refresh=-1",
            "external-wake-rate=-1",
            "external-wake-rate=0",
        ],
    )
    def test_parse_rejects_malformed_specs(self, spec):
        with pytest.raises(ConfigError):
            parse_perturbation(spec)

    def test_dram_perturbation_scales_only_the_budget_knob(self):
        config, workload, kwargs = apply_perturbation("dram-self-refresh", 1.2)
        base_config, base_workload, _ = apply_perturbation("dram-self-refresh", 1.0)
        assert config.budget.dram_self_refresh_w == pytest.approx(
            base_config.budget.dram_self_refresh_w * 1.2
        )
        assert workload == base_workload
        assert kwargs == {}

    def test_external_wake_perturbation_enables_wakes_on_both_sides(self):
        config, workload, kwargs = apply_perturbation("external-wake-rate", 2.0)
        base_config, base_workload, _ = apply_perturbation("external-wake-rate", 1.0)
        assert config == base_config
        assert workload.external_wake_rate_per_hour == pytest.approx(
            base_workload.external_wake_rate_per_hour * 2.0
        )
        assert kwargs == {"external_wakes": True}

    def test_unknown_perturbation_raises(self):
        with pytest.raises(ConfigError):
            apply_perturbation("bogus", 2.0)

    def test_registry_entries_are_described(self):
        assert set(PERTURBATIONS) >= {"dram-self-refresh", "external-wake-rate"}
        assert all(PERTURBATIONS.values())


class TestSeededFaultRanking:
    def test_payload_conforms(self, perturbed):
        assert perturbed["schema"] == EXPLAIN_SCHEMA
        assert validate_explain_payload(perturbed) == []

    def test_perturbed_cell_ranks_top(self, perturbed):
        """The acceptance gate: the injected fault is the verdict."""
        top = perturbed["contributors"][0]
        assert (top["domain"], top["state"], top["cause"]) == PERTURBED_CELL
        assert top["delta_j"] > 0
        assert top["share"] == max(c["share"] for c in perturbed["contributors"])
        assert perturbed["energy_delta_j"] > 0

    def test_perturbation_is_recorded(self, perturbed):
        assert perturbed["perturbation"] == {"key": "dram-self-refresh", "factor": 1.2}
        assert perturbed["compatible"] is True
        assert perturbed["base"]["backend"] == perturbed["subject"]["backend"] == (
            "exact"
        )

    def test_ranking_is_deterministic(self, perturbed):
        again = explain_simulate(
            "fig2", perturb="dram-self-refresh=1.2", cycles=1
        )
        assert json.dumps(again, sort_keys=True) == json.dumps(
            perturbed, sort_keys=True
        )

    def test_render_names_the_verdict(self, perturbed):
        text = render_explain(perturbed)
        assert "top contributor: board x drips x steady-idle" in text
        assert "simulate" in text

    def test_two_target_mode_diffs_technique_sets(self):
        cache = SimulationCache()
        payload = explain_simulate("fig2", target2="odrips", cycles=1, cache=cache)
        assert payload["compatible"] is True
        assert payload["contributors"]
        assert payload["base"]["target"] == "fig2"
        assert payload["subject"]["target"] == "odrips"
        assert validate_explain_payload(payload) == []
        # the profiles were memoized: asking again must not re-simulate
        misses = cache.stats.misses
        explain_simulate("fig2", target2="odrips", cycles=1, cache=cache)
        assert cache.stats.misses == misses

    def test_explain_needs_two_runs(self):
        with pytest.raises(ConfigError):
            explain_simulate("fig2", cycles=1)

    def test_unknown_target_raises(self):
        with pytest.raises(ConfigError):
            explain_simulate("fig2", target2="warp-drive", cycles=1)


class TestRankedContributors:
    def test_ranked_by_absolute_delta_with_cell_tiebreak(self):
        base = {("a", "s", "c"): 1.0, ("b", "s", "c"): 2.0}
        subject = {
            ("a", "s", "c"): 1.5,
            ("b", "s", "c"): 2.0,
            ("c", "s", "c"): 0.5,
        }
        rows = ranked_contributors(base, subject)
        assert [row["domain"] for row in rows] == ["a", "c", "b"]
        assert rows[0]["share"] == pytest.approx(0.5)
        assert rows[2]["delta_j"] == 0.0
        assert sum(row["share"] for row in rows) == pytest.approx(1.0)


class TestBackendRefusal:
    def test_run_profile_backend(self):
        assert make_profile(macro_enabled=False).backend == "exact"
        assert make_profile(macro_enabled=True).backend == "macro"

    def test_macro_vs_exact_is_refused(self):
        payload = diff_profiles(
            make_profile(macro_enabled=False),
            make_profile(macro_enabled=True, fingerprint="p-macro"),
        )
        assert payload["compatible"] is False
        assert "refusing to diff" in payload["reason"]
        assert payload["contributors"] == []
        assert validate_explain_payload(payload) == []
        assert "INCOMPATIBLE" in render_explain(payload)

    def test_matched_backends_are_diffed(self):
        payload = diff_profiles(
            make_profile(macro_enabled=True),
            make_profile(macro_enabled=True, fingerprint="p-macro-2"),
        )
        assert payload["compatible"] is True
        assert payload["reason"] == ""


class TestHistoryMode:
    def test_latest_two_records_are_compared(self, store):
        store.append(fig2_record(60.0, fingerprint="a" * 64))
        store.append(fig2_record(75.0, fingerprint="a" * 64))
        payload = explain_history("fig2", runlog=store)
        assert payload["mode"] == "history"
        assert payload["compatible"] is True
        assert payload["config_drift"] is False
        deltas = {row["metric"]: row["delta"] for row in payload["metric_deltas"]}
        assert deltas["drips_power_mw"] == pytest.approx(15.0)

    def test_config_drift_is_flagged(self, store):
        store.append(fig2_record(fingerprint="a" * 64))
        store.append(fig2_record(fingerprint="b" * 64))
        assert explain_history("fig2", runlog=store)["config_drift"] is True

    def test_macro_vs_exact_history_is_refused(self, store):
        store.append(fig2_record(macro={"enabled": False}))
        store.append(
            fig2_record(macro={"enabled": True, "cycles_compiled": 9, "steps": 1})
        )
        payload = explain_history("fig2", runlog=store)
        assert payload["compatible"] is False
        assert payload["metric_deltas"] == []

    def test_fewer_than_two_runs_raises(self, store):
        store.append(fig2_record())
        with pytest.raises(MeasurementError, match="need two recorded runs"):
            explain_history("fig2", runlog=store)

    def test_summary_is_none_without_history(self, store):
        assert explain_summary("fig2", runlog=store) is None

    def test_summary_digest(self, store):
        store.append(fig2_record(60.0))
        store.append(fig2_record(75.0))
        digest = explain_summary("fig2", runlog=store, top=1)
        assert digest["compatible"] is True
        assert len(digest["top"]) == 1
        assert digest["top"][0]["metric"] == "drips_power_mw"


class TestReportEmbedding:
    def test_drifted_golden_carries_explainer(self, store):
        store.append(fig2_record(60.0))
        store.append(fig2_record(75.0))  # latest: out of tolerance
        report = build_report(runlog=store, bench_path="does-not-exist.json")
        drifted = [f for f in report["findings"] if not f["within"]]
        assert drifted
        explain = drifted[0]["explain"]
        assert explain["compatible"] is True
        assert any(row["metric"] == "drips_power_mw" for row in explain["top"])
        text = render_text(report)
        assert "Drift explainers" in text
        assert "drips_power_mw" in text

    def test_single_run_drift_reports_without_explainer(self, store):
        store.append(fig2_record(75.0))
        report = build_report(runlog=store, bench_path="does-not-exist.json")
        drifted = [f for f in report["findings"] if not f["within"]]
        assert drifted
        assert all("explain" not in f for f in drifted)
        assert "Drift explainers" not in render_text(report)


class TestRunlogProvenance:
    def test_experiment_record_aggregates_macro_provenance(self):
        recorder = RunRecorder()
        recorder.measurement(
            "a", 0.1, False, macro={"enabled": True, "cycles_compiled": 9, "steps": 1}
        )
        recorder.measurement(
            "b", 0.1, False, macro={"enabled": False, "cycles_compiled": 0, "steps": 0}
        )
        record = recorder.experiment(
            name="fig2", fingerprint="f" * 64, wall_s=0.2, metrics={}, goldens={}
        )
        assert record["macro"] == {
            "enabled": True,
            "cycles_compiled": 9,
            "steps": 1,
        }

    def test_exact_only_measurements_leave_backend_exact(self):
        recorder = RunRecorder()
        recorder.measurement(
            "a", 0.1, False, macro={"enabled": False, "cycles_compiled": 0, "steps": 0}
        )
        record = recorder.experiment(
            name="fig2", fingerprint="f" * 64, wall_s=0.1, metrics={}, goldens={}
        )
        assert record["macro"]["enabled"] is False


class TestLedgerRollupRow:
    def test_truncated_rows_roll_the_tail_into_one_row(self):
        session = obs.run_traced("fig2", cycles=1)
        full = session.ledger.step_rows()
        limited = session.ledger.step_rows(limit=1)
        assert len(full) > 2
        assert len(limited) == 2
        label, domain, joules = limited[1]
        assert label.startswith(f"(+{len(full) - 1} more, ")
        assert label.endswith(" mJ)")
        assert domain == ""
        assert sum(row[2] for row in limited) == pytest.approx(
            sum(row[2] for row in full)
        )


class TestExplainCLI:
    def test_perturb_run_exits_zero_with_valid_json(self, capsys):
        code = cli.main(
            [
                "explain",
                "fig2",
                "--perturb",
                "dram-self-refresh=1.2",
                "--cycles",
                "1",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert validate_explain_payload(payload) == []
        top = payload["contributors"][0]
        assert (top["domain"], top["state"], top["cause"]) == PERTURBED_CELL

    def test_malformed_perturbation_is_a_usage_error(self, capsys):
        assert cli.main(["explain", "fig2", "--perturb", "bogus=2.0"]) == 2
        assert "unknown perturbation" in capsys.readouterr().err

    def test_missing_second_run_is_a_usage_error(self, capsys):
        assert cli.main(["explain", "fig2"]) == 2
        assert "two runs" in capsys.readouterr().err

    def test_empty_history_is_a_usage_error(self, store, capsys):
        assert cli.main(["explain", "fig2", "--history"]) == 2
        assert "need two recorded runs" in capsys.readouterr().err

    def test_incompatible_history_exits_one(self, store, capsys):
        store.append(fig2_record(macro={"enabled": False}))
        store.append(
            fig2_record(macro={"enabled": True, "cycles_compiled": 9, "steps": 1})
        )
        assert cli.main(["explain", "fig2", "--history"]) == 1
        assert "refusing to diff" in capsys.readouterr().out
