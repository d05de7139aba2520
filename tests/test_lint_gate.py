"""The self-enforcing lint gate (tier 1).

Runs the model verifier over the shipped Skylake platform in both extreme
configurations and the source checker over every module of ``repro``.  A
change that mis-wires the platform model or breaks unit discipline fails
this test, which is the point: the static-analysis gate rides in the same
``pytest`` invocation CI already runs.
"""

from __future__ import annotations

import pytest

from repro.lint import lint_experiments, lint_paths, lint_platform, walk_model
from repro.lint.diagnostics import render_text
from repro.lint.source import default_source_root
from repro.system.skylake import SkylakePlatform
from repro.core.techniques import TechniqueSet


def describe(diagnostics) -> str:
    return render_text(diagnostics)


@pytest.mark.parametrize(
    "techniques", [TechniqueSet.baseline(), TechniqueSet.odrips()],
    ids=["baseline", "odrips"],
)
def test_shipped_platform_model_is_clean(techniques):
    platform = SkylakePlatform(techniques=techniques)
    diagnostics = lint_platform(platform)
    assert diagnostics == [], describe(diagnostics)


def test_model_walk_is_not_vacuous():
    """Guard against the walker silently finding nothing (which would make
    the clean-model assertion above meaningless)."""
    view = walk_model(SkylakePlatform(techniques=TechniqueSet.odrips()))
    assert view.tree is not None
    assert len(view.rails) >= 3
    assert len(view.domains) >= 5
    assert len(view.components) >= 10
    assert view.gates and view.crystals and view.clocks
    assert view.fsm is not None
    assert {flow.name for flow in view.flows} == {"entry", "exit"}


def test_repro_sources_are_clean(shipped_sources):
    cache, _graph = shipped_sources
    diagnostics = lint_paths([default_source_root()], cache=cache)
    assert diagnostics == [], describe(diagnostics)


def test_experiment_registry_is_clean():
    """M307: every shipped driver declares goldens (or an exempt reason)."""
    diagnostics = lint_experiments()
    assert diagnostics == [], describe(diagnostics)


def test_experiment_registry_check_is_not_vacuous():
    """Guard against the registry check passing because nothing registered."""
    from repro.core.experiments import EXPERIMENTS

    assert len(EXPERIMENTS) >= 8
    assert sum(1 for spec in EXPERIMENTS.values() if spec.goldens) >= 7
