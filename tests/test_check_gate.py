"""The self-enforcing model-checker gate (tier 1).

Exhaustively explores the shipped Skylake platform in both extreme
configurations and runs the unit-dataflow pass over every module of
``repro``.  A change that breaks flow sequencing, violates a power-safety
invariant, or mixes units across a call boundary fails this test in the
same ``pytest`` invocation CI already runs — exactly like the lint gate.
"""

from __future__ import annotations

import pytest

from repro.check import (
    BUILTIN_INVARIANTS,
    CHECK_RULES,
    check_model_view,
    check_standby_model,
)
from repro.check.dataflow import analyze_graph
from repro.check.effects import analyze_effects_graph
from repro.core.techniques import TechniqueSet
from repro.lint import all_rules, validate_rule_patterns
from repro.lint.diagnostics import render_text
from repro.lint.model import walk_model
from repro.system.skylake import SkylakePlatform


def describe(diagnostics) -> str:
    return render_text(diagnostics)


@pytest.mark.parametrize(
    "techniques", [TechniqueSet.baseline(), TechniqueSet.odrips()],
    ids=["baseline", "odrips"],
)
def test_shipped_platform_checks_clean_and_exhaustively(techniques):
    report = check_standby_model(techniques=techniques)
    assert report.diagnostics == [], describe(report.diagnostics)
    assert report.state_space["truncated"] is False
    assert report.state_space["states_explored"] >= 10


def test_checker_gate_is_not_vacuous():
    """Guard against the exploration silently finding nothing: a seeded
    single-step mutation must produce an invariant violation."""
    view = walk_model(SkylakePlatform(techniques=TechniqueSet.odrips()))
    for flow in view.flows:
        if flow.name == "exit":
            steps = tuple(s for s in flow.steps if s.label != "exit:xtal-restart")
            object.__setattr__(flow, "steps", steps)
    report = check_model_view(view)
    assert {d.rule for d in report.diagnostics} == {"C201", "C203"}


def test_repro_sources_pass_the_unit_dataflow(shipped_sources):
    _cache, graph = shipped_sources
    diagnostics = analyze_graph(graph)
    assert diagnostics == [], describe(diagnostics)


def test_repro_sources_pass_the_effects_analysis(shipped_sources):
    """The shipped tree is effect-clean at every contract boundary —
    intentional instrumentation is declared with @declares_effects at the
    function that owns it, never pragma-silenced per file."""
    _cache, graph = shipped_sources
    report = analyze_effects_graph(graph)
    assert report.diagnostics == [], describe(report.diagnostics)
    assert report.summary["converged"] is True
    # The discovery must actually see the shipped contract surface:
    # figure drivers, the cached measurement/model-check runners, and
    # the parallel sweep workers.
    kinds = {entry["kind"] for entry in report.summary["entry_points"]}
    assert kinds == {"driver", "cache", "sweep-worker"}
    assert len(report.summary["entry_points"]) >= 12
    # ...and the declared boundaries are the documented instrumentation
    # owners, not blanket whitelists.
    declared = {entry["qualname"] for entry in report.summary["declared"]}
    assert "ODRIPSController.measure" in declared
    assert "sweep" in declared
    assert "RunLog.append" in declared


def test_state_space_cache_makes_repeat_checks_free():
    from repro.perf.cache import SimulationCache

    cache = SimulationCache()
    first = check_standby_model(cache=cache)
    second = check_standby_model(cache=cache)
    assert second is first
    assert cache.stats.hits == 1 and cache.stats.misses == 1
    # a different configuration is a different key, not a stale hit
    check_standby_model(techniques=TechniqueSet.baseline(), cache=cache)
    assert cache.stats.misses == 2


def test_rule_registry_is_single_and_collision_free():
    """Satellite: one registry serves lint and check; ids never collide."""
    pairs = all_rules()
    ids = [rule_id for rule_id, _ in pairs]
    assert len(ids) == len(set(ids)), "duplicate rule ids in the registry"
    names = [name for _, name in pairs]
    assert len(names) == len(set(names)), "duplicate rule names in the registry"
    registered = set(ids)
    assert {rule.rule_id for rule in CHECK_RULES} <= registered
    assert "S407" in registered
    # C-series patterns validate exactly like M/S patterns
    validate_rule_patterns(["C1", "C101", "deadlock", "arith-unit-mismatch"], pairs)


def test_every_builtin_invariant_is_registered():
    registered = {rule_id for rule_id, _ in all_rules()}
    for invariant in BUILTIN_INVARIANTS:
        assert invariant.rule.rule_id in registered
