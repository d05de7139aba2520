"""Tests for the priced-timed budget analysis (repro.check.budgets, C6xx).

The non-vacuity tests follow the single-step mutation discipline of the
other rule families: each C6xx rule gets one seeded mutation — a probe
price or a declaration field perturbed by one value — and the test
asserts the rule fires on the mutant and stays silent on the seed.
Probes run the real simulator once per configuration (module-scoped);
every mutation analyzes injected copies, so the suite prices two cycles
total no matter how many rules it exercises.
"""

from __future__ import annotations

import copy
from fractions import Fraction

import pytest

from repro.check.budgets import (
    analyze_budgets,
    derive_technique_break_even,
    probe_standby_cycle,
)
from repro.check.ts import compile_transition_system
from repro.core.techniques import TechniqueSet
from repro.lint.model import walk_model
from repro.system.skylake import SkylakePlatform


@pytest.fixture(scope="module")
def odrips_view_ts():
    platform = SkylakePlatform(techniques=TechniqueSet.odrips())
    view = walk_model(platform)
    ts, diagnostics = compile_transition_system(view)
    assert ts is not None and not diagnostics
    return view, ts


@pytest.fixture(scope="module")
def probes():
    return {
        "self": probe_standby_cycle(techniques=TechniqueSet.odrips()),
        "baseline": probe_standby_cycle(techniques=TechniqueSet.baseline()),
    }


def _mutant(probes, view):
    """Deep copies safe to perturb without poisoning the module fixtures."""
    return copy.deepcopy(probes), copy.deepcopy(view.budgets)


def _analyze(view, ts, probes, budgets=...):
    mutated = copy.copy(view)
    if budgets is not ...:
        mutated.budgets = budgets
    return analyze_budgets(mutated, ts, probes=probes)


def _rules(diagnostics):
    return sorted({diag.rule for diag in diagnostics})


# --- the seed is clean -------------------------------------------------------


def test_seed_platform_is_clean(odrips_view_ts, probes):
    view, ts = odrips_view_ts
    summary, diagnostics = analyze_budgets(view, ts, probes=probes)
    assert diagnostics == []
    row = summary["deep_states"]["DRIPS"]
    assert row["worst_exit_latency_ps"] <= row["wake_budget_ps"]
    assert row["break_even_s"] is not None
    assert row["break_even_vs"] == "baseline"
    assert summary["cycle"]["energy_lower_bound_j"] <= summary["cycle"]["golden_limit_j"]


def test_summary_derives_numbers_for_every_deep_state(odrips_view_ts, probes):
    view, ts = odrips_view_ts
    summary, _ = analyze_budgets(view, ts, probes=probes)
    for state in ts.idle_states:
        row = summary["deep_states"][state]
        assert row["worst_exit_latency_ps"] > 0
        assert row["worst_entry_latency_ps"] > 0
        assert row["worst_exit_path"][0].startswith("exit:")
        assert row["worst_exit_path"][-1] == "EXIT->ACTIVE"
        assert row["break_even_s"] > 0
    # the shallow ladder is derived alongside
    assert set(summary["ladder"]) == {"C2", "C6", "C8"}
    for row in summary["ladder"].values():
        assert row["break_even_s"] > 0


def test_probe_prices_are_physical(probes):
    for probe in probes.values():
        assert probe["entry_latency_ps"] > 0
        assert probe["exit_latency_ps"] > 0
        assert probe["entry_energy_j"] > 0
        assert probe["exit_energy_j"] > 0
        assert probe["active_power_w"] > probe["drips_power_w"] > 0
        assert any(
            label.startswith("exit:") and entry["latency_ps"] > 0
            for label, entry in probe["steps"].items()
        )
        # the flow channel's step windows tile the state channel's
        # entry/exit dwell the cycle price reads
        for flow in ("entry", "exit"):
            assert probe[f"{flow}_latency_ps"] == sum(
                entry["latency_ps"]
                for label, entry in probe["steps"].items()
                if label.startswith(f"{flow}:")
            )


# --- single-step mutations: each rule is non-vacuous -------------------------


def test_c601_fires_on_inflated_exit_step(odrips_view_ts, probes):
    view, ts = odrips_view_ts
    mutated_probes, _ = _mutant(probes, view)
    mutated_probes["self"]["steps"]["exit:io-restore"]["latency_ps"] += 1_000_000_000
    _, diagnostics = _analyze(view, ts, mutated_probes)
    c601 = [diag for diag in diagnostics if diag.rule == "C601"]
    assert c601, _rules(diagnostics)
    # the witness path must route through the inflated step
    assert "exit:io-restore" in (c601[0].hint or "")


def test_c602_fires_on_residency_below_break_even(odrips_view_ts, probes):
    view, ts = odrips_view_ts
    _, budgets = _mutant(probes, view)
    budgets["deep_states"]["DRIPS"]["residency_guarantee_s"] = 0.001
    _, diagnostics = _analyze(view, ts, probes, budgets=budgets)
    assert "C602" in _rules(diagnostics)


def test_c603_fires_on_drifted_declared_break_even(odrips_view_ts, probes):
    view, ts = odrips_view_ts
    _, budgets = _mutant(probes, view)
    budgets["deep_states"]["DRIPS"]["break_even_s"] = 0.020
    _, diagnostics = _analyze(view, ts, probes, budgets=budgets)
    assert "C603" in _rules(diagnostics)


def test_c604_fires_without_declaration(odrips_view_ts, probes):
    view, ts = odrips_view_ts
    _, diagnostics = _analyze(view, ts, probes, budgets=None)
    c604 = [diag for diag in diagnostics if diag.rule == "C604"]
    assert {diag.location.obj for diag in c604} >= set(ts.idle_states)


def test_c604_fires_on_missing_deep_state_entry(odrips_view_ts, probes):
    view, ts = odrips_view_ts
    _, budgets = _mutant(probes, view)
    del budgets["deep_states"]["DRIPS"]
    _, diagnostics = _analyze(view, ts, probes, budgets=budgets)
    assert "C604" in _rules(diagnostics)


def test_c604_fires_on_unparseable_entry(odrips_view_ts, probes):
    view, ts = odrips_view_ts
    _, budgets = _mutant(probes, view)
    budgets["deep_states"]["DRIPS"]["wake_budget_ps"] = "soon"
    _, diagnostics = _analyze(view, ts, probes, budgets=budgets)
    assert "C604" in _rules(diagnostics)


def test_c605_fires_on_inflated_drips_power(odrips_view_ts, probes):
    view, ts = odrips_view_ts
    mutated_probes, _ = _mutant(probes, view)
    mutated_probes["self"]["drips_power_w"] = Fraction(1)
    # keep the baseline above the mutant so the break-even stays defined
    mutated_probes["baseline"]["drips_power_w"] = Fraction(2)
    _, diagnostics = _analyze(view, ts, mutated_probes)
    assert "C605" in _rules(diagnostics)


# --- worst-case vs the declaration ------------------------------------------


def test_worst_exit_includes_slow_clock_allowance(odrips_view_ts, probes):
    """The worst-case path covers every 32 kHz wake phase, not just the
    one the probe happened to sample: the derived figure must exceed the
    probed one by at least the declared xtal-restart allowance."""
    view, ts = odrips_view_ts
    summary, _ = analyze_budgets(view, ts, probes=probes)
    allowance = view.budgets["chipset"]["step_allowances_ps"]["exit:xtal-restart"]
    probed = probes["self"]["exit_latency_ps"]
    worst = summary["deep_states"]["DRIPS"]["worst_exit_latency_ps"]
    assert worst >= probed + allowance


# --- differential: static derivation vs dynamic sweep ------------------------


def test_static_break_even_matches_dynamic_sweep(probes):
    """The priced-timed derivation and the simulator's two-point sweep
    model the same fixed-period cycle; they must agree within the
    declared differential tolerance on the seed platform."""
    from repro.analysis.breakeven import find_break_even
    from repro.system.budget import DIFFERENTIAL_TOLERANCE

    static = float(derive_technique_break_even(probes["self"], probes["baseline"]))
    dynamic = find_break_even(TechniqueSet.odrips()).break_even_s
    assert dynamic > 0
    assert abs(static - dynamic) / dynamic <= DIFFERENTIAL_TOLERANCE


def test_derived_break_even_matches_paper_constant(odrips_view_ts, probes):
    view, ts = odrips_view_ts
    summary, _ = analyze_budgets(view, ts, probes=probes)
    row = summary["deep_states"]["DRIPS"]
    declared = row["declared_break_even_s"]
    assert declared == pytest.approx(6.5e-3)
    drift = abs(row["break_even_s"] - declared) / declared
    assert drift <= view.budgets["deep_states"]["DRIPS"]["break_even_tolerance"]


# --- report plumbing ---------------------------------------------------------


def test_check_standby_model_budgets_flag():
    from repro.check import check_standby_model
    from repro.perf.cache import SimulationCache

    cache = SimulationCache()
    plain = check_standby_model(cache=cache)
    assert plain.budgets is None
    priced = check_standby_model(cache=cache, budgets=True)
    assert priced.budgets is not None
    assert "DRIPS" in priced.budgets["deep_states"]
    # distinct cache keys: the flag changes the report shape
    assert cache.stats.hits == 0
    again = check_standby_model(cache=cache, budgets=True)
    assert again is priced and cache.stats.hits == 1
