"""Tests of the end-to-end benchmark harness (``pytest benchmarks/e2e``).

Every workload runs at its tiny size, so the whole file takes seconds.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*argv: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--size", "tiny", "--seconds", "0.2", *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_declared_metrics_match_the_harness():
    e2e = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    assert sorted(e2e) == sorted(run.END_TO_END)
    assert sorted(per_layer) == sorted(layers.LAYER_METRICS)
    names = [name for name, _ in e2e + per_layer] + [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), [n for n in names if not NAME.match(n)]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]} == {
        "setup_s": 0.25, "pass_s": 0.15, "op_p50_ms": 0.15, "op_tail_ms": 0.15,
        "peak_rss_mb": 0.10,
    }


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_workload_emits_every_declared_metric(workload, tmp_path):
    result = bench("--workload", workload, "--seed", "3")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())

    traced = bench("--workload", workload, "--seed", "3", "--trace", "1",
                   "--trace-out", str(tmp_path))
    assert traced["correct"]
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert traced["metrics"]["trace.attributed_frac"]["value"] >= 0.9
    spans = tmp_path / f"trace-{workload}-3.json"
    assert json.loads(spans.read_text())["spans"]


def test_corrupted_expected_digest_counts_as_a_failed_op(tmp_path):
    expected = tmp_path / "expected.json"
    argv = ("--workload", "standby-dark", "--seed", "3", "--expected", str(expected))
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--size", "tiny", "--record", *argv],
        cwd=ROOT, check=True, capture_output=True, timeout=170,
    )
    assert bench(*argv)["failed"] == 0

    data = json.loads(expected.read_text())
    digests = data["tiny"]["standby-dark"]["3"]
    digests[0] = "0" * 64
    expected.write_text(json.dumps(data))
    result = bench(*argv)
    assert not result["correct"]
    assert result["failed"] >= 1


def _tamper_problems():
    workload = workloads.setup("mee-random-access", 3, "tiny")
    workload.begin_pass()
    for op in workload.ops:
        op()
    _payload, problems = workload.final_op()
    return problems


def test_tamper_op_passes_with_real_macs():
    assert _tamper_problems() == []


def test_tamper_op_fails_when_macs_always_verify(monkeypatch):
    from repro.sgx.crypto import MacKey

    monkeypatch.setattr(MacKey, "verify", lambda self, expected, *parts: True)
    assert _tamper_problems()


def _run_file(path, pairs=10, scale=1.0, failed=0, paper_err=0.5):
    """A ``run.py --json`` file of ``pairs`` context-save-restore runs."""
    runs = [
        {"seed": seed, "seconds": 10, "size": "full", "trace": False, "results": {
            "context-save-restore": {
                "correct": failed == 0 or seed > 0,
                "attempted": 9,
                "failed": failed if seed == 0 else 0,
                "metrics": {
                    m["name"]: scale * (1 + 0.001 * seed) for m in BENCHMARK["end_to_end"]
                },
                "paper_err_max": paper_err,
            },
        }}
        for seed in range(pairs)
    ]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_applies_the_pair_rule(tmp_path):
    parent = _run_file(tmp_path / "parent.json")
    assert compare.main([parent, _run_file(tmp_path / "same.json")]) == 0
    assert compare.main([parent, _run_file(tmp_path / "slow.json", scale=1.5)]) == 1
    assert compare.main([parent, _run_file(tmp_path / "few.json", pairs=9)]) == 2


def test_compare_holds_correctness_to_a_zero_bound(tmp_path):
    parent = _run_file(tmp_path / "parent.json")
    assert compare.main([parent, _run_file(tmp_path / "failed.json", failed=1)]) == 1
    assert compare.main([parent, _run_file(tmp_path / "drift.json", paper_err=0.5000001)]) == 1
