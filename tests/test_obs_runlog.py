"""Flight-recorder tests: run records, the append-only store, seams."""

from __future__ import annotations

import importlib
import json

from repro.core.experiments import EXPERIMENTS, fig2_connected_standby
from repro.core.odrips import ODRIPSController
from repro.obs.hook import active, observe
from repro.obs.runlog import (
    RUNLOG_DIR_ENV,
    RUNLOG_SCHEMA,
    RunLog,
    RunRecorder,
    git_revision,
)
from repro.perf.cache import SimulationCache


class TestGitRevision:
    def test_reads_this_repository(self, tmp_path, monkeypatch):
        """From a subdirectory, the default start walks up to the enclosing
        ``.git`` and follows HEAD through a loose branch ref."""
        git = tmp_path / ".git"
        (git / "refs" / "heads").mkdir(parents=True)
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        (git / "refs" / "heads" / "main").write_text("0123456789abcdef" * 2 + "01234567\n")
        nested = tmp_path / "src" / "repro"
        nested.mkdir(parents=True)
        monkeypatch.chdir(nested)
        rev = git_revision()
        assert rev == "0123456789abcdef" * 2 + "01234567"
        assert len(rev) == 40
        assert all(ch in "0123456789abcdef" for ch in rev)

    def test_outside_a_repository(self, tmp_path):
        assert git_revision(tmp_path) is None

    def test_detached_head(self, tmp_path):
        git = tmp_path / ".git"
        git.mkdir()
        (git / "HEAD").write_text("a" * 40 + "\n")
        assert git_revision(tmp_path) == "a" * 40

    def test_packed_refs(self, tmp_path):
        git = tmp_path / ".git"
        git.mkdir()
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        (git / "packed-refs").write_text(
            "# pack-refs with: peeled fully-peeled sorted\n"
            + "b" * 40 + " refs/heads/main\n"
        )
        assert git_revision(tmp_path) == "b" * 40


class TestRunLogStore:
    def test_append_stamps_and_roundtrips(self, tmp_path):
        store = RunLog(tmp_path / "runs")
        store.append({"schema": RUNLOG_SCHEMA, "experiment": "fig2", "metrics": {}})
        records = store.records()
        assert len(records) == 1
        assert records[0]["experiment"] == "fig2"
        assert records[0]["git_rev"] == git_revision()
        assert records[0]["recorded_at_unix_s"] > 0

    def test_append_only(self, tmp_path):
        store = RunLog(tmp_path / "runs")
        for index in range(3):
            store.append({"experiment": f"e{index}"})
        assert [r["experiment"] for r in store.records()] == ["e0", "e1", "e2"]
        assert len(store) == 3

    def test_corrupt_lines_are_skipped(self, tmp_path):
        store = RunLog(tmp_path / "runs")
        store.append({"experiment": "fig2"})
        with store.path.open("a") as stream:
            stream.write("{torn json\n")
            stream.write("[1, 2]\n")  # parseable but not a record
        store.append({"experiment": "fig6a"})
        assert [r["experiment"] for r in store.records()] == ["fig2", "fig6a"]

    def test_latest_by_experiment(self, tmp_path):
        store = RunLog(tmp_path / "runs")
        store.append({"experiment": "fig2", "wall_s": 1.0})
        store.append({"experiment": "fig2", "wall_s": 2.0})
        store.append({"experiment": "fig6a", "wall_s": 3.0})
        latest = store.latest_by_experiment()
        assert latest["fig2"]["wall_s"] == 2.0
        assert latest["fig6a"]["wall_s"] == 3.0

    def test_missing_store_is_empty(self, tmp_path):
        assert RunLog(tmp_path / "never-created").records() == []

    def test_env_override_selects_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv(RUNLOG_DIR_ENV, str(tmp_path / "elsewhere"))
        store = RunLog()
        assert store.directory == tmp_path / "elsewhere"

    def test_concurrent_style_interleaving(self, tmp_path):
        # two stores on one file emulate two processes appending
        a = RunLog(tmp_path / "runs")
        b = RunLog(tmp_path / "runs")
        a.append({"experiment": "fig2"})
        b.append({"experiment": "fig6b"})
        a.append({"experiment": "fig6c"})
        assert len(a) == 3


class TestRecorder:
    def test_install_uninstall(self):
        assert active().recorder is None
        recorder = RunRecorder()
        with observe(recorder=recorder):
            assert active().recorder is recorder
        assert active().recorder is None

    def test_recording_context(self):
        recorder = RunRecorder()
        with observe(recorder=recorder) as observation:
            assert observation.recorder is recorder
            assert active() is observation
        assert active().recorder is None

    def test_experiment_drains_pending_subevents(self):
        recorder = RunRecorder()
        recorder.measurement("Baseline", 0.5, cached=False)
        recorder.sweep(points=3, workers=None, wall_s=1.5,
                       point_walls_s=[0.5, 0.5, 0.5], worker_pids=[1, 1, 1])
        record = recorder.experiment(
            "fig6b", fingerprint="abc", wall_s=2.0, metrics={}, goldens={}
        )
        assert record["measurements"][0]["label"] == "Baseline"
        assert record["sweeps"][0]["points"] == 3
        assert record["sweeps"][0]["worker_pids"] == [1]
        # drained: the next record carries none
        again = recorder.experiment(
            "fig6b", fingerprint="abc", wall_s=2.0, metrics={}, goldens={}
        )
        assert "measurements" not in again
        assert "sweeps" not in again

    def test_finish_flushes_orphans(self):
        recorder = RunRecorder()
        recorder.measurement("ODRIPS", 0.25, cached=True)
        recorder.finish("battery")
        assert len(recorder.records) == 1
        assert recorder.records[0]["experiment"] == "cli:battery"
        assert recorder.records[0]["measurements"][0]["cached"] is True

    def test_finish_without_orphans_records_nothing(self):
        recorder = RunRecorder()
        recorder.finish("fig2")
        assert recorder.records == []


class TestDriverIntegration:
    def test_fig2_run_is_recorded(self):
        recorder = RunRecorder()
        with observe(recorder=recorder):
            fig2_connected_standby(cycles=1)
        assert len(recorder.records) == 1
        record = recorder.records[0]
        assert record["schema"] == RUNLOG_SCHEMA
        assert record["experiment"] == "fig2"
        assert len(record["fingerprint"]) == 64
        assert record["wall_s"] > 0
        assert record["goldens"]["drips_power_mw"]["within"] is True
        assert record["context"]["cycles"] == 1
        # the controller seam contributed the measurement
        assert record["measurements"][0]["cached"] is False
        assert json.dumps(record)  # JSON-able end to end

    def test_fingerprint_ignores_cache_handle(self):
        spec = EXPERIMENTS["fig2"]
        plain = spec.config_fingerprint(cycles=1)
        cached = spec.config_fingerprint(cycles=1, cache=SimulationCache())
        different = spec.config_fingerprint(cycles=2)
        assert plain == cached
        assert plain != different

    def test_cache_stats_and_cached_flag(self):
        cache = SimulationCache()
        recorder = RunRecorder()
        with observe(recorder=recorder):
            fig2_connected_standby(cycles=1, cache=cache)
            fig2_connected_standby(cycles=1, cache=cache)
        first, second = recorder.records
        assert first["cache"] == {"hits": 0, "misses": 1}
        assert first["measurements"][0]["cached"] is False
        assert second["cache"] == {"hits": 1, "misses": 1}
        assert second["measurements"][0]["cached"] is True

    def test_no_recorder_means_no_records(self):
        result = fig2_connected_standby(cycles=1)
        assert result.average_power_mw > 0
        assert active().recorder is None

    def test_controller_seam_outside_driver(self):
        recorder = RunRecorder()
        with observe(recorder=recorder):
            ODRIPSController().measure(cycles=1)
            recorder.finish("battery")
        assert recorder.records[0]["experiment"] == "cli:battery"
        assert recorder.records[0]["wall_s"] > 0


class TestSweepIntegration:
    def test_serial_sweep_contributes_fanout(self, monkeypatch):
        sweep_module = importlib.import_module("repro.analysis.sweep")

        monkeypatch.setattr(sweep_module, "_usable_cpus", lambda: 1)
        recorder = RunRecorder()

        with observe(recorder=recorder):
            points = sweep_module.sweep([1.0, 2.0, 3.0], _double)
            recorder.finish("sweep")
        assert points == [(1.0, 2.0), (2.0, 4.0), (3.0, 6.0)]
        fanout = recorder.records[0]["sweeps"][0]
        assert fanout["points"] == 3
        assert fanout["workers"] is None and "backend" not in fanout
        assert len(fanout["point_walls_s"]) == 3
        assert len(fanout["worker_pids"]) == 1

    def test_parallel_sweep_reports_workers(self, monkeypatch):
        sweep_module = importlib.import_module("repro.analysis.sweep")

        monkeypatch.setattr(sweep_module, "_usable_cpus", lambda: 2)
        recorder = RunRecorder()

        with observe(recorder=recorder):
            points = sweep_module.sweep([1.0, 2.0, 3.0, 4.0], _double)
            recorder.finish("sweep")
        assert points == [(1.0, 2.0), (2.0, 4.0), (3.0, 6.0), (4.0, 8.0)]
        fanout = recorder.records[0]["sweeps"][0]
        assert fanout["workers"] == 2
        assert len(fanout["point_walls_s"]) == 4
        assert 1 <= len(fanout["worker_pids"]) <= 2

    def test_sweep_without_recorder_unchanged(self):
        from repro.analysis.sweep import sweep

        assert sweep([2.0], _double) == [(2.0, 4.0)]

    def test_pool_sweep_keeps_worker_measurements(self, monkeypatch):
        """Worker-side measurements and macro provenance reach the record.

        Each sweep point runs under its own recorder that the parent
        folds back, so a pool sweep records what an in-process one does.
        """
        sweep_module = importlib.import_module("repro.analysis.sweep")
        from repro.core.experiments import fig6b_core_frequency

        def recorded(cpus):
            monkeypatch.setattr(sweep_module, "_usable_cpus", lambda: cpus)
            recorder = RunRecorder()
            with observe(recorder=recorder):
                fig6b_core_frequency(cycles=1, macro=True)
            (record,) = recorder.records
            return record

        pooled, serial = recorded(2), recorded(1)
        assert pooled["sweeps"][0]["workers"] == 2
        assert serial["sweeps"][0]["workers"] is None

        def points(record):
            return [(m["label"], m["cached"], m["macro"]) for m in record["measurements"]]

        assert len(points(serial)) == 3
        assert points(pooled) == points(serial)
        assert pooled["macro"] == serial["macro"]
        assert pooled["macro"]["enabled"] is True


def _double(value: float) -> float:
    return value * 2.0
