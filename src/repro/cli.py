"""Command-line interface: ``python -m repro <experiment>``.

Runs any of the paper's experiments from the shell and prints the same
paper-vs-measured tables the benchmark harness emits.

Examples::

    python -m repro fig1b          # DRIPS power breakdown
    python -m repro fig6a          # technique savings
    python -m repro fig6a --break-even   # + the residency break-even line
    python -m repro all            # every experiment in sequence
    python -m repro battery --battery-wh 50
    python -m repro lint           # static model verifier + source checker
    python -m repro lint --json --select M1 --ignore S405
    python -m repro check          # exhaustive FSM/flow model checker
    python -m repro check --json --max-states 1000 --invariants clock-coupling
    python -m repro trace fig2 --out trace.json   # Perfetto-loadable trace
    python -m repro fig2 --trace   # run instrumented, print the span digest
    python -m repro fig6a --cache  # memoized runs + hit/miss stats
    python -m repro fig2 --profile # host-phase wall time + peak allocations
    python -m repro report --json  # regression watchdog over the run history

Every experiment run is recorded by the flight recorder to
``.repro/runs/runs.jsonl`` (opt out with ``--no-runlog``); ``report``
replays that history against the paper's golden values and the
``BENCH_perf.json`` policies, exiting nonzero on drift.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, Dict, List, Optional

from repro.analysis.ablations import (
    context_store_ablation,
    gate_ablation,
    mee_cache_ablation,
    step_bits_ablation,
    timer_location_ablation,
)
from repro.analysis.battery import BATTERY_WH, life_table
from repro.analysis.breakeven import find_break_even
from repro.analysis.report import format_table
from repro.core.experiments import (
    FIG6A_SETS,
    fig1b_breakdown,
    fig2_connected_standby,
    fig6a_techniques,
    fig6b_core_frequency,
    fig6c_dram_frequency,
    fig6d_emerging_memories,
    sec413_calibration,
    sec63_context_latency,
    table1_parameters,
)
from repro.core.odrips import ODRIPSController
from repro.core.techniques import TechniqueSet


def cmd_fig1b(args: argparse.Namespace) -> None:
    result = fig1b_breakdown()
    rows = [
        ["platform DRIPS power", f"{result.platform_drips_mw:.1f} mW", "~60 mW"],
        ["wake-up hw (timer + XTAL)", f"{result.wakeup_and_crystal:.1%}", "~5 %"],
        ["AON IOs", f"{result.shares['aon_ios']:.1%}", "7 %"],
        ["S/R SRAMs", f"{result.shares['sr_srams']:.1%}", "9 %"],
        ["processor total", f"{result.processor_total:.1%}", "18 %"],
    ]
    print(format_table(["component", "measured", "paper"], rows,
                       title="Fig. 1(b) - DRIPS power breakdown"))


def _cache_of(args: argparse.Namespace):
    """The run-wide SimulationCache main() created for --cache, if any."""
    return getattr(args, "cache_obj", None)


def _cycles_of(args: argparse.Namespace) -> int:
    """Measured cycles for this run: ``--horizon DAYS`` wins over ``--cycles``.

    A horizon converts through the default workload's cycle period
    (idle interval + mean maintenance); week-scale horizons are only
    practical together with ``--macro``.
    """
    horizon_days = getattr(args, "horizon", None)
    if horizon_days is None:
        return args.cycles
    from repro.config import StandbyWorkloadConfig
    from repro.sim.macro import cycles_for_horizon

    workload = StandbyWorkloadConfig()
    return cycles_for_horizon(
        horizon_days, workload.idle_interval_s, workload.maintenance_mean_s
    )


def cmd_fig2(args: argparse.Namespace) -> None:
    result = fig2_connected_standby(
        cycles=_cycles_of(args), cache=_cache_of(args), macro=args.macro
    )
    rows = [
        ["DRIPS residency", f"{result.drips_residency:.2%}", "99.5 %"],
        ["DRIPS power", f"{result.drips_power_mw:.1f} mW", "~60 mW"],
        ["Active power", f"{result.active_power_w:.2f} W", "~3 W"],
        ["average power", f"{result.average_power_mw:.1f} mW", "~75 mW"],
    ]
    print(format_table(["quantity", "measured", "paper"], rows,
                       title="Fig. 2 - connected standby (baseline)"))


def cmd_fig6a(args: argparse.Namespace) -> None:
    result = fig6a_techniques(
        cycles=_cycles_of(args), cache=_cache_of(args), macro=args.macro
    )
    rows = [["Baseline (DRIPS)", f"{result.baseline_mw:.1f} mW", "-", "-"]]
    for row in result.rows:
        rows.append([row.label, f"{row.average_power_mw:.1f} mW",
                     f"{row.saving:.1%}", f"{row.paper_saving:.0%}"])
    print(format_table(["configuration", "avg power", "saving", "paper"],
                       rows, title="Fig. 6(a) - technique savings"))
    if args.break_even:
        print()
        rows = []
        for label, techniques in FIG6A_SETS:
            be = find_break_even(techniques)
            rows.append([label, f"{be.break_even_ms:.2f} ms"])
        print(format_table(["configuration", "break-even"], rows,
                           title="Fig. 6(a) - break-even points"))


def cmd_fig6b(args: argparse.Namespace) -> None:
    rows = []
    for row in fig6b_core_frequency(cycles=_cycles_of(args), macro=args.macro):
        paper = "-" if row.paper_delta is None else f"{row.paper_delta:+.1%}"
        rows.append([f"{row.parameter:.1f} GHz", f"{row.average_power_mw:.2f} mW",
                     f"{row.delta_vs_reference:+.2%}", paper])
    print(format_table(["core freq", "avg power", "delta", "paper"], rows,
                       title="Fig. 6(b) - core-frequency scaling (ODRIPS)"))


def cmd_fig6c(args: argparse.Namespace) -> None:
    rows = []
    for row in fig6c_dram_frequency(cycles=_cycles_of(args), macro=args.macro):
        paper = "-" if row.paper_delta is None else f"{row.paper_delta:+.1%}"
        rows.append([f"{row.parameter / 1e9:.3f} GHz", f"{row.average_power_mw:.2f} mW",
                     f"{row.delta_vs_reference:+.2%}", paper])
    print(format_table(["DRAM rate", "avg power", "delta", "paper"], rows,
                       title="Fig. 6(c) - DRAM-frequency scaling (ODRIPS)"))


def cmd_fig6d(args: argparse.Namespace) -> None:
    rows = []
    for row in fig6d_emerging_memories(
        cycles=_cycles_of(args), cache=_cache_of(args), macro=args.macro
    ):
        rows.append([row.label, f"{row.average_power_mw:.1f} mW",
                     f"{row.saving_vs_baseline:.1%}", f"{row.paper_saving:.1%}"])
    print(format_table(["configuration", "avg power", "saving", "paper"], rows,
                       title="Fig. 6(d) - emerging memories"))


def cmd_table1(args: argparse.Namespace) -> None:
    rows = [[name, value] for name, (value, _note) in table1_parameters().items()]
    print(format_table(["parameter", "value"], rows, title="Table 1"))


def cmd_latency(args: argparse.Namespace) -> None:
    result = sec63_context_latency()
    rows = [
        ["context size", f"{result.context_bytes // 1024} KB", "~200 KB"],
        ["save", f"{result.save_us:.1f} us", "~18 us"],
        ["restore", f"{result.restore_us:.1f} us", "~13 us"],
    ]
    print(format_table(["quantity", "measured", "paper"], rows,
                       title="Sec. 6.3 - context transfer latency"))


def cmd_calibration(args: argparse.Namespace) -> None:
    result = sec413_calibration()
    rows = [
        ["integer bits m", result.integer_bits, 10],
        ["fractional bits f", result.fractional_bits, 21],
        ["worst-case drift", f"{result.worst_case_drift_ppb:.2f} ppb", "<1 ppb"],
    ]
    print(format_table(["quantity", "measured", "paper"], rows,
                       title="Sec. 4.1.3 - Step register sizing"))


def cmd_ablations(args: argparse.Namespace) -> None:
    print(format_table(
        ["gate", "off leakage", "extra pins"],
        [[r.gate, f"{r.off_leakage_mw * 1e3:.1f} uW",
          "yes" if r.needs_processor_pins else "no"] for r in gate_ablation()],
        title="Sec. 5.1 - EPG vs FET",
    ))
    print()
    print(format_table(
        ["design", "DRIPS saving", "enables IO gating"],
        [[r.design, f"{r.drips_saving_mw:.2f} mW",
          "yes" if r.enables_io_gating else "no"]
         for r in timer_location_ablation()],
        title="Sec. 4.1.1 - timer location",
    ))
    print()
    print(format_table(
        ["f bits", "drift", "calibration"],
        [[r.fractional_bits, f"{r.worst_case_drift_ppb:.2f} ppb",
          f"{r.calibration_seconds:.1f} s"] for r in step_bits_ablation()],
        title="Sec. 4.1.3 - Step bits",
    ))
    print()
    print(format_table(
        ["cache nodes", "hit rate", "DRAM accesses/read"],
        [[r.cache_nodes, f"{r.hit_rate:.1%}",
          f"{r.metadata_accesses_per_read:.2f}"] for r in mee_cache_ablation()],
        title="Sec. 6.2 - MEE cache",
    ))
    print()
    print(format_table(
        ["store", "avg power", "saving"],
        [[r.store, f"{r.average_power_mw:.2f} mW",
          f"{r.saving_vs_baseline:.1%}"] for r in context_store_ablation()],
        title="Sec. 6.1 - context store",
    ))


def cmd_sensitivity(args: argparse.Namespace) -> None:
    from repro.analysis.sensitivity import budget_sensitivity, workload_sensitivity

    rows = [
        [row.parameter, f"{row.saving_low:.1%}", f"{row.saving_nominal:.1%}",
         f"{row.saving_high:.1%}"]
        for row in budget_sensitivity()
    ]
    print(format_table(
        ["constant (+/-25%)", "saving @ -25%", "nominal", "saving @ +25%"],
        rows,
        title="Sensitivity of the ODRIPS saving",
    ))
    print()
    rows = [[f"{idle:.0f} s", f"{saving:.1%}"] for idle, saving in workload_sensitivity()]
    print(format_table(["idle interval", "saving"], rows,
                       title="Saving vs idle interval"))


def cmd_temperature(args: argparse.Namespace) -> None:
    from repro.analysis.scaling import drips_power_at_temperature
    from repro.config import skylake_config

    budget = skylake_config().budget
    rows = []
    for temp in (10.0, 20.0, 30.0, 40.0, 50.0, 60.0):
        watts = drips_power_at_temperature(budget, temp)
        rows.append([f"{temp:.0f} C", f"{watts * 1e3:.1f} mW"])
    print(format_table(["temperature", "DRIPS power"], rows,
                       title="DRIPS power vs temperature (Fig. 1(b) is at 30 C)"))


def cmd_battery(args: argparse.Namespace) -> None:
    measurements: Dict[str, float] = {}
    for label, techniques in [
        ("Baseline (DRIPS)", TechniqueSet.baseline()),
        ("ODRIPS", TechniqueSet.odrips()),
        ("ODRIPS-PCM", TechniqueSet.odrips_pcm()),
    ]:
        measurements[label] = ODRIPSController(techniques, cache=_cache_of(args)).measure(
            cycles=_cycles_of(args), macro=args.macro
        ).average_power_w
    rows = [
        [label, f"{mw:.1f} mW", f"{days:.1f} days", f"{extra:+.1f} days"]
        for label, mw, days, extra in life_table(measurements, args.battery_wh)
    ]
    print(format_table(
        ["configuration", "avg power", f"standby on {args.battery_wh:.0f} Wh", "vs baseline"],
        rows,
        title="Connected-standby battery life",
    ))


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one observed experiment and export its trace + energy ledger."""
    from repro import obs
    from repro.errors import ConfigError

    target = args.target or "fig2"
    try:
        session = obs.run_traced(target, cycles=args.cycles)
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    out = args.out or f"trace-{target}.json"
    path = obs.write_chrome_trace(session.tracer, out, platform=session.platform)
    print(obs.render_summary(session.tracer, ledger=session.ledger,
                             platform=session.platform))
    print()
    print(f"Chrome trace written to {path} - load it in Perfetto "
          "(ui.perfetto.dev) or chrome://tracing")
    if args.jsonl:
        jsonl_path = obs.write_jsonl(session.tracer, args.jsonl)
        print(f"JSONL event log written to {jsonl_path}")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Explain the delta between two runs: ``python -m repro explain``.

    Simulate mode compares two traced configurations (or one against a
    perturbed copy of itself via ``--perturb KEY=FACTOR``) and ranks the
    (domain x state x wake-cause) energy-delta contributors; ``--history``
    compares the two most recent flight-recorder records of an
    experiment instead.  Exit 0 on a ranked verdict, 1 when the runs are
    incompatible (macro vs exact backend), 2 on usage errors.
    """
    import json as json_mod

    from repro.errors import ConfigError, MeasurementError
    from repro.obs.diff import explain_history, explain_simulate, render_explain

    cache = None
    if args.cache:
        from repro.perf.cache import SimulationCache

        cache = SimulationCache()
    target = args.target or "fig2"
    try:
        if args.history:
            payload = explain_history(target)
        else:
            payload = explain_simulate(
                target,
                target2=args.target2,
                perturb=args.perturb,
                cycles=args.cycles,
                cache=cache,
            )
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except MeasurementError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json_mod.dumps(payload, indent=1, sort_keys=True))
    else:
        print(render_explain(payload))
    return 0 if payload["compatible"] else 1


def _explain_rule(token: str) -> int:
    """Print one registered rule's identity and an example diagnostic.

    Shared by ``repro lint --explain`` and ``repro check --explain``:
    both commands validate patterns against the same registry, so both
    explain from it too.  Accepts a rule id (``C601``) or name
    (``wake-budget-exceeded``); unknown rules are a usage error.
    """
    from repro import lint as lint_mod
    from repro.lint.diagnostics import Diagnostic, Location

    entry = None
    for candidate in lint_mod.rule_catalog():
        if token in (candidate["rule_id"], candidate["name"]):
            entry = candidate
            break
    if entry is None:
        print(f"error: unknown rule: {token!r}", file=sys.stderr)
        print(
            "hint: pass a rule id (e.g. C601) or name (e.g. "
            "wake-budget-exceeded); see docs/LINT.md and docs/CHECK.md",
            file=sys.stderr,
        )
        return lint_mod.EXIT_USAGE
    print(f"{entry['rule_id']} ({entry['name']}) [{entry['severity'].value}]")
    print(f"  {entry['summary']}")
    example = Diagnostic(
        rule=entry["rule_id"],
        name=entry["name"],
        severity=entry["severity"],
        message=entry["summary"],
        location=Location(obj="<example>"),
    )
    print("example diagnostic:")
    print(f"  {example.render()}")
    return lint_mod.EXIT_CLEAN


def cmd_lint(args: argparse.Namespace) -> int:
    """Run every static-analysis pass; exit non-zero on any finding.

    The model verifier runs on the shipped Skylake platform in its two
    extreme configurations (baseline DRIPS and full ODRIPS, which differ
    in the components they instantiate); the experiment-registry check
    (M307) verifies golden-value coverage; the source checker runs on
    the installed ``repro`` sources unless ``--path`` overrides them.
    """
    from repro import lint as lint_mod
    from repro.errors import ConfigError
    from repro.system.skylake import SkylakePlatform

    if args.explain:
        return _explain_rule(args.explain)
    select = [token for entry in args.select for token in entry.split(",") if token]
    ignore = [token for entry in args.ignore for token in entry.split(",") if token]
    try:
        lint_mod.validate_rule_patterns(select + ignore, lint_mod.all_rules())
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return lint_mod.EXIT_USAGE

    diagnostics = []
    for techniques in (TechniqueSet.baseline(), TechniqueSet.odrips()):
        diagnostics.extend(lint_mod.lint_platform(SkylakePlatform(techniques=techniques)))
    diagnostics.extend(lint_mod.lint_experiments())
    paths = args.path or [_default_lint_root()]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        for path in missing:
            print(f"error: no such file or directory: {path}", file=sys.stderr)
        return lint_mod.EXIT_USAGE
    diagnostics.extend(lint_mod.lint_paths(paths))
    diagnostics = lint_mod.filter_diagnostics(
        lint_mod.dedupe_diagnostics(diagnostics), select=select, ignore=ignore
    )
    if args.json:
        print(lint_mod.render_json(diagnostics))
    else:
        print(lint_mod.render_text(diagnostics))
    return lint_mod.exit_code(diagnostics)


def _default_lint_root() -> str:
    from repro.lint.source import default_source_root

    return str(default_source_root())


def cmd_check(args: argparse.Namespace) -> int:
    """Exhaustive model check + interprocedural source passes (C-series).

    Explores every reachable composed state of the shipped Skylake
    platform in its two extreme configurations (baseline DRIPS and full
    ODRIPS), checks the power-safety invariants in each state, then runs
    the unit-dataflow (C4xx) and effect/determinism (C5xx) passes over
    the sources — both on one shared parse and call graph, so each file
    is parsed exactly once per invocation.  Exit 0 when clean, 1 on
    findings, 2 on usage errors — the same contract as ``repro lint``.
    """
    import json as json_mod

    from repro import check as check_mod
    from repro import lint as lint_mod
    from repro.check.callgraph import graph_for_paths
    from repro.check.dataflow import analyze_graph
    from repro.check.effects import analyze_effects_graph
    from repro.errors import ConfigError
    from repro.lint.astcache import ModuleCache

    if args.explain:
        return _explain_rule(args.explain)
    select = [token for entry in args.select for token in entry.split(",") if token]
    ignore = [token for entry in args.ignore for token in entry.split(",") if token]
    try:
        lint_mod.validate_rule_patterns(select + ignore, lint_mod.all_rules())
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return lint_mod.EXIT_USAGE

    invariant_names = None
    if args.invariants:
        invariant_names = tuple(
            token for entry in args.invariants for token in entry.split(",") if token
        )
    try:
        check_mod.select_invariants(invariant_names)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return lint_mod.EXIT_USAGE
    if args.max_states <= 0:
        print("error: --max-states must be positive", file=sys.stderr)
        return lint_mod.EXIT_USAGE

    run_budgets = getattr(args, "budgets", False)
    diagnostics = []
    state_space: Dict[str, object] = {}
    budgets: Dict[str, object] = {}
    for label, techniques in (
        ("baseline", TechniqueSet.baseline()),
        ("odrips", TechniqueSet.odrips()),
    ):
        report = check_mod.check_standby_model(
            techniques=techniques,
            invariant_names=invariant_names,
            max_states=args.max_states,
            budgets=run_budgets,
        )
        diagnostics.extend(report.diagnostics)
        state_space[label] = report.state_space
        if report.budgets is not None:
            budgets[label] = report.budgets

    paths = args.path or [_default_lint_root()]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        for path in missing:
            print(f"error: no such file or directory: {path}", file=sys.stderr)
        return lint_mod.EXIT_USAGE
    cache = ModuleCache()
    graph = graph_for_paths(paths, cache=cache)
    diagnostics.extend(analyze_graph(graph))
    effects_summary: Optional[Dict[str, object]] = None
    if getattr(args, "effects", True):
        effects_report = analyze_effects_graph(graph)
        diagnostics.extend(effects_report.diagnostics)
        effects_summary = effects_report.summary

    diagnostics = lint_mod.filter_diagnostics(
        lint_mod.dedupe_diagnostics(diagnostics), select=select, ignore=ignore
    )
    if args.json:
        payload = json_mod.loads(lint_mod.render_json(diagnostics))
        payload["state_space"] = state_space
        if effects_summary is not None:
            payload["effects"] = effects_summary
        if run_budgets:
            payload["budgets"] = budgets
        print(json_mod.dumps(payload, indent=2, sort_keys=True))
    else:
        print(lint_mod.render_text(diagnostics))
        for label in sorted(state_space):
            summary = state_space[label]
            print(
                f"state space [{label}]: {summary['states_explored']} state(s), "
                f"{summary['transitions_taken']} transition(s)"
                + (" [truncated]" if summary["truncated"] else "")
            )
        for label in sorted(budgets):
            summary = budgets[label]
            for state, row in sorted(summary.get("deep_states", {}).items()):
                exit_ps = row.get("worst_exit_latency_ps")
                exit_us = "n/a" if exit_ps is None else f"{exit_ps / 1e6:.1f} us"
                budget_ps = row.get("wake_budget_ps")
                budget_us = (
                    "undeclared" if budget_ps is None else f"{budget_ps / 1e6:.1f} us"
                )
                break_even = row.get("break_even_s")
                break_even_ms = (
                    "n/a" if break_even is None else f"{break_even * 1e3:.2f} ms"
                )
                print(
                    f"budgets [{label}]: {state} worst exit {exit_us} "
                    f"(budget {budget_us}), break-even {break_even_ms}"
                    + (
                        f" vs {row['break_even_vs']}"
                        if row.get("break_even_vs")
                        else ""
                    )
                )
            cycle = summary.get("cycle")
            if isinstance(cycle, dict):
                limit = cycle.get("golden_limit_j")
                limit_text = "n/a" if limit is None else f"{limit:.3f} J"
                print(
                    f"budgets [{label}]: cycle energy >= "
                    f"{cycle['energy_lower_bound_j']:.3f} J "
                    f"(golden ceiling {limit_text} over "
                    f"{cycle['period_s']:.3f} s)"
                )
        if effects_summary is not None:
            entries = effects_summary["entry_points"]
            clean = sum(1 for entry in entries if entry["clean"])
            print(
                f"effects: {len(entries)} entry point(s), {clean} clean, "
                f"{len(entries) - clean} with undeclared effects "
                f"({effects_summary['functions']} function(s) analyzed, "
                f"parsed {cache.parse_count} file(s) once)"
            )
    return lint_mod.exit_code(diagnostics)


COMMANDS: Dict[str, Callable[[argparse.Namespace], None]] = {
    "fig1b": cmd_fig1b,
    "fig2": cmd_fig2,
    "fig6a": cmd_fig6a,
    "fig6b": cmd_fig6b,
    "fig6c": cmd_fig6c,
    "fig6d": cmd_fig6d,
    "table1": cmd_table1,
    "latency": cmd_latency,
    "calibration": cmd_calibration,
    "ablations": cmd_ablations,
    "battery": cmd_battery,
    "sensitivity": cmd_sensitivity,
    "temperature": cmd_temperature,
}


def _positive_int(text: str) -> int:
    """argparse type: a positive integer (anything else exits 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a positive finite number (anything else exits 2)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the ODRIPS (HPCA 2020) experiments",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(COMMANDS) + ["all", "check", "explain", "lint",
                                    "report", "trace"],
        help="which paper experiment to run ('lint' for static analysis, "
             "'check' for the exhaustive model checker, 'trace' for an "
             "observed run with Perfetto export, 'explain' for the "
             "differential drift explainer, 'report' for the "
             "golden-number regression watchdog)",
    )
    parser.add_argument(
        "target", nargs="?", default=None,
        help="trace/explain: configuration to observe (fig2, baseline, "
             "wake-up-off, aon-io-gate, ctx, odrips, odrips-mram, odrips-pcm; "
             "default fig2)",
    )
    parser.add_argument(
        "target2", nargs="?", default=None,
        help="explain: second configuration to diff the first against",
    )
    parser.add_argument(
        "--cycles", type=_positive_int, default=2,
        help="measured connected-standby cycles per configuration (default 2)",
    )
    perf_group = parser.add_argument_group("performance options")
    perf_group.add_argument(
        "--macro", dest="macro", action="store_true", default=False,
        help="macro-step periodic standby cycles (bit-for-bit identical "
             "results, orders of magnitude faster for long horizons)",
    )
    perf_group.add_argument(
        "--no-macro", dest="macro", action="store_false",
        help="force event-by-event simulation (default)",
    )
    perf_group.add_argument(
        "--horizon", type=_positive_float, default=None, metavar="DAYS",
        help="simulated horizon in days; overrides --cycles via the default "
             "workload's cycle period (use with --macro for week scales)",
    )
    obs_group = parser.add_argument_group("observability options")
    obs_group.add_argument(
        "--out", metavar="FILE", default=None,
        help="trace: Chrome trace-event JSON output path (default trace-<target>.json)",
    )
    obs_group.add_argument(
        "--jsonl", metavar="FILE", default=None,
        help="trace: also write a flat JSONL event log",
    )
    obs_group.add_argument(
        "--trace", action="store_true",
        help="run the experiment instrumented and print the span/metric digest",
    )
    obs_group.add_argument(
        "--metrics", action="store_true",
        help="run the experiment instrumented and print the metrics tables",
    )
    obs_group.add_argument(
        "--cache", action="store_true",
        help="memoize simulation runs and report cache hit/miss stats",
    )
    obs_group.add_argument(
        "--profile", action="store_true",
        help="attribute host wall time and peak allocations to "
             "build/simulate/measure/analyze phases",
    )
    obs_group.add_argument(
        "--no-runlog", action="store_true",
        help="do not record this run to the .repro/runs flight recorder",
    )
    parser.add_argument(
        "--break-even", action="store_true",
        help="fig6a: also compute the residency break-even points (slower)",
    )
    parser.add_argument(
        "--battery-wh", type=_positive_float, default=BATTERY_WH["surface-class"],
        help="battery capacity for the battery command (default 38 Wh)",
    )
    lint_group = parser.add_argument_group("lint options")
    lint_group.add_argument(
        "--json", action="store_true",
        help="lint: emit machine-readable JSON instead of text",
    )
    lint_group.add_argument(
        "--select", action="append", default=[], metavar="RULES",
        help="lint: only report these rules (comma-separated ids/prefixes/names)",
    )
    lint_group.add_argument(
        "--ignore", action="append", default=[], metavar="RULES",
        help="lint: suppress these rules (comma-separated ids/prefixes/names)",
    )
    lint_group.add_argument(
        "--path", action="append", default=[], metavar="PATH",
        help="lint: source files/directories to check (default: the repro package)",
    )
    lint_group.add_argument(
        "--explain", metavar="RULE", default=None,
        help="lint/check: print the registered rule's identity, summary and "
             "an example diagnostic, then exit (rule id or name)",
    )
    check_group = parser.add_argument_group("check options")
    check_group.add_argument(
        "--max-states", type=int, default=100_000, metavar="N",
        help="check: bound on explored composed states (default 100000)",
    )
    check_group.add_argument(
        "--invariants", action="append", default=[], metavar="NAMES",
        help="check: only evaluate these invariants (comma-separated names; "
             "default: all builtins)",
    )
    check_group.add_argument(
        "--effects", dest="effects", action="store_true", default=True,
        help="check: run the C5xx effect/determinism analysis (default)",
    )
    check_group.add_argument(
        "--no-effects", dest="effects", action="store_false",
        help="check: skip the C5xx effect/determinism analysis",
    )
    check_group.add_argument(
        "--budgets", dest="budgets", action="store_true", default=False,
        help="check: run the priced-timed C6xx budget analysis — worst-case "
             "exit latency, break-even residency and per-cycle energy bounds "
             "(probes one standby cycle per configuration)",
    )
    check_group.add_argument(
        "--no-budgets", dest="budgets", action="store_false",
        help="check: skip the C6xx budget analysis (default)",
    )
    explain_group = parser.add_argument_group("explain options")
    explain_group.add_argument(
        "--perturb", metavar="KEY=FACTOR", default=None,
        help="explain: diff the target against a perturbed copy of itself "
             "(dram-self-refresh, external-wake-rate)",
    )
    explain_group.add_argument(
        "--history", action="store_true",
        help="explain: diff the two most recent flight-recorder records of "
             "the target experiment instead of re-simulating",
    )
    report_group = parser.add_argument_group("report options")
    report_group.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="report: JSON file overriding golden values / bench policies",
    )
    report_group.add_argument(
        "--bench", metavar="FILE", default=None,
        help="report: benchmark figures to check (default BENCH_perf.json)",
    )
    report_group.add_argument(
        "--html", metavar="FILE", default=None,
        help="report: also write a static HTML report",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.experiment == "lint":
        return cmd_lint(args)
    if args.experiment == "check":
        return cmd_check(args)
    if args.experiment == "report":
        from repro.regress.report import cmd_report

        return cmd_report(args)
    if args.experiment == "trace":
        return cmd_trace(args)
    if args.experiment == "explain":
        return cmd_explain(args)

    args.cache_obj = None
    if args.cache:
        from repro.perf.cache import SimulationCache

        args.cache_obj = SimulationCache()

    from repro import obs
    from repro.obs.profile import PhaseProfiler, host_phase
    from repro.obs.runlog import RunRecorder

    tracer = obs.Tracer() if args.trace or args.metrics else None
    profiler = PhaseProfiler(track_allocations=True) if args.profile else None
    recorder = None if args.no_runlog else RunRecorder()
    with obs.observe(tracer=tracer, profiler=profiler, recorder=recorder):
        if args.experiment == "all":
            for name in ["table1", "fig1b", "fig2", "fig6a", "fig6b", "fig6c",
                         "fig6d", "latency", "calibration", "ablations"]:
                with host_phase("analyze"):
                    COMMANDS[name](args)
                print()
        else:
            with host_phase("analyze"):
                COMMANDS[args.experiment](args)
    if tracer is not None:
        print()
        print(obs.render_summary(tracer, include_spans=args.trace,
                                 profiler=profiler,
                                 platform=tracer.platforms[-1]
                                 if tracer.platforms else None))
    elif profiler is not None:
        from repro.obs.export import render_profile

        print()
        print(render_profile(profiler))
    if args.cache_obj is not None:
        stats = args.cache_obj.stats
        print()
        print(f"cache: {stats.hits} hit(s), {stats.misses} miss(es), "
              f"{stats.hit_rate:.0%} hit rate over {stats.lookups} lookup(s)")
    if recorder is not None:
        _persist_runlog(recorder, args.experiment)
    return 0


def _persist_runlog(recorder, command: str) -> None:
    """Append this invocation's run records to the flight-recorder store.

    Persistence failures warn instead of failing the run: the experiment
    output already printed, and a read-only checkout must stay usable.
    """
    from repro.obs.runlog import RunLog

    recorder.finish(command)
    if not recorder.records:
        return
    try:
        RunLog().append_all(recorder.records)
    except OSError as error:
        print(f"warning: flight recorder could not append run records: {error}",
              file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
