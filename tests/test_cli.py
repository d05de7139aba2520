"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_known_experiments(self):
        parser = build_parser()
        args = parser.parse_args(["fig1b"])
        assert args.experiment == "fig1b"
        assert args.cycles == 2

    def test_cycles_option(self):
        args = build_parser().parse_args(["fig2", "--cycles", "5"])
        assert args.cycles == 5

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig2", "--cycles", "0"],
            ["fig2", "--cycles", "-3"],
            ["fig2", "--cycles", "two"],
            ["trace", "--cycles", "0"],
            ["explain", "--cycles", "0"],
            ["fig2", "--horizon", "-1"],
            ["fig2", "--horizon", "0"],
            ["fig2", "--horizon", "nan"],
            ["fig2", "--horizon", "inf"],
            ["battery", "--battery-wh", "0"],
            ["battery", "--battery-wh", "-38"],
            ["battery", "--battery-wh", "nan"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_bad_numeric_argument_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "Traceback" not in err


class TestCommands:
    def test_fig1b_prints_breakdown(self, capsys):
        assert main(["fig1b"]) == 0
        out = capsys.readouterr().out
        assert "DRIPS power breakdown" in out
        assert "S/R SRAMs" in out

    def test_calibration_prints_sizing(self, capsys):
        assert main(["calibration"]) == 0
        out = capsys.readouterr().out
        assert "fractional bits f" in out
        assert "21" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Skylake" in out

    def test_latency(self, capsys):
        assert main(["latency"]) == 0
        out = capsys.readouterr().out
        assert "save" in out and "us" in out

    def test_fig2_with_one_cycle(self, capsys):
        assert main(["fig2", "--cycles", "1"]) == 0
        out = capsys.readouterr().out
        assert "DRIPS residency" in out

    def test_sensitivity(self, capsys):
        assert main(["sensitivity"]) == 0
        out = capsys.readouterr().out
        assert "S/R SRAM power" in out
        assert "idle interval" in out

    def test_temperature(self, capsys):
        assert main(["temperature"]) == 0
        out = capsys.readouterr().out
        assert "30 C" in out
        assert "DRIPS power" in out


class TestExamplesCompile:
    def test_every_example_compiles(self):
        """Examples must at least be syntactically valid and importable
        as sources (running them takes minutes; the APIs they use are
        covered by the unit suite)."""
        import pathlib
        import py_compile

        examples_dir = pathlib.Path(__file__).resolve().parent.parent / "examples"
        examples = sorted(examples_dir.glob("*.py"))
        assert len(examples) >= 8
        for path in examples:
            py_compile.compile(str(path), doraise=True)


class TestTraceCommand:
    def test_trace_parses_with_optional_target(self):
        args = build_parser().parse_args(["trace"])
        assert args.experiment == "trace"
        assert args.target is None
        args = build_parser().parse_args(["trace", "odrips", "--out", "t.json"])
        assert args.target == "odrips"
        assert args.out == "t.json"

    def test_unknown_target_exits_2(self, capsys):
        assert main(["trace", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown trace target" in err
        assert "odrips" in err  # the error lists the valid targets

    def test_trace_fig2_writes_perfetto_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        code = main([
            "trace", "fig2", "--cycles", "1",
            "--out", str(out), "--jsonl", str(jsonl),
        ])
        assert code == 0
        document = json.loads(out.read_text())
        assert document["traceEvents"]
        assert any(e["ph"] == "X" for e in document["traceEvents"])
        lines = jsonl.read_text().splitlines()
        assert lines and all(json.loads(line) for line in lines)
        stdout = capsys.readouterr().out
        assert "Energy ledger" in stdout
        assert "Perfetto" in stdout


class TestObservabilityFlags:
    def test_trace_flag_prints_span_digest_and_uninstalls(self, capsys):
        from repro.obs.hook import active

        assert main(["fig2", "--cycles", "1", "--trace", "--cache"]) == 0
        out = capsys.readouterr().out
        assert "Spans" in out
        assert "entry:llc-flush" in out
        assert "cache: 0 hit(s), 1 miss(es)" in out
        assert active().tracer is None  # main() must restore the enclosing observation

    def test_metrics_flag_prints_counters_only(self, capsys):
        assert main(["fig2", "--cycles", "1", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "Counters" in out
        assert "kernel.events:" in out
        assert "Spans" not in out
