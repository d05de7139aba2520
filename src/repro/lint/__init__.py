"""Static analysis for the ODRIPS reproduction: ``repro.lint``.

Two passes guard the two invariants the paper's hardware enforced
physically and the simulator only enforces by convention:

* the **model verifier** (:func:`lint_platform`) statically walks a
  constructed platform — power tree, clock sources, platform-state FSM
  and entry/exit flow specs — and reports wiring bugs (``M1xx``/``M2xx``/
  ``M3xx`` rules) before a single cycle is simulated;
* the **source checker** (:func:`lint_paths`) parses the library sources
  with the stdlib ``ast`` module and enforces the canonical-unit
  discipline of :mod:`repro.units` (``S4xx`` rules).

A third, narrow pass (:func:`lint_experiments`, rule ``M307``) checks
the experiment-driver registry: every driver must declare the golden
values the regression watchdog compares, so new experiments cannot
silently opt out of fidelity checking.

Run both from the shell with ``python -m repro lint`` (see docs/LINT.md
for the rule catalog), or call them directly::

    from repro.lint import lint_platform, lint_paths, render_text
    from repro.system.skylake import SkylakePlatform

    diagnostics = lint_platform(SkylakePlatform())
    print(render_text(diagnostics))
"""

from repro.lint.diagnostics import (
    EXIT_CLEAN,
    EXIT_DIAGNOSTICS,
    EXIT_USAGE,
    JSON_SCHEMA_VERSION,
    Diagnostic,
    Location,
    Severity,
    dedupe_diagnostics,
    exit_code,
    filter_diagnostics,
    render_json,
    render_text,
    sort_diagnostics,
    validate_rule_patterns,
)
from repro.lint.model import ModelView, lint_model_view, lint_platform, walk_model
from repro.lint.rules_experiments import M307_NAME, M307_RULE, lint_experiments
from repro.lint.source import lint_file, lint_paths, lint_source_text


def all_rules():
    """Every known rule as ``(rule_id, name)`` pairs, read from
    :func:`rule_catalog`, the single registry.

    It covers the ``M``/``S`` series of the lint passes, the
    pragma-hygiene rule (S407), and the ``C`` series of the exhaustive
    model checker (:mod:`repro.check`).  Both ``repro lint``
    and ``repro check`` validate ``--select``/``--ignore`` patterns
    against it, and the gate tests assert the ids are unique.
    """
    return [(entry["rule_id"], entry["name"]) for entry in rule_catalog()]


def rule_catalog():
    """Every known rule with its full identity, catalog order.

    Each entry is a dict with ``rule_id``, ``name``, ``severity``
    (:class:`Severity`) and ``summary``.  This is the registry behind
    ``repro lint --explain RULE`` / ``repro check --explain RULE``, and
    :func:`all_rules` reads its ids and names.
    """
    from repro.check.rules import CHECK_RULES
    from repro.lint.rules_model import MODEL_RULES
    from repro.lint.rules_source import SOURCE_RULES
    from repro.lint.source import S407_NAME, S407_RULE

    def entry(rule):
        return {
            "rule_id": rule.rule_id,
            "name": rule.name,
            "severity": rule.severity,
            "summary": rule.summary,
        }

    entries = [entry(rule) for rule in MODEL_RULES]
    # M307 and S407 are standalone passes without a *Rule dataclass;
    # their identity lives here so the explain registry stays complete.
    entries.append(
        {
            "rule_id": M307_RULE,
            "name": M307_NAME,
            "severity": Severity.ERROR,
            "summary": "experiment driver declares no golden-value coverage",
        }
    )
    entries.extend(entry(rule) for rule in SOURCE_RULES)
    entries.append(
        {
            "rule_id": S407_RULE,
            "name": S407_NAME,
            "severity": Severity.WARNING,
            "summary": "allow pragma names a rule id that exists in no catalog",
        }
    )
    entries.extend(entry(rule) for rule in CHECK_RULES)
    return entries


__all__ = [
    "EXIT_CLEAN",
    "EXIT_DIAGNOSTICS",
    "EXIT_USAGE",
    "JSON_SCHEMA_VERSION",
    "Diagnostic",
    "Location",
    "ModelView",
    "Severity",
    "all_rules",
    "dedupe_diagnostics",
    "exit_code",
    "filter_diagnostics",
    "lint_experiments",
    "lint_file",
    "lint_model_view",
    "lint_paths",
    "lint_platform",
    "lint_source_text",
    "render_json",
    "render_text",
    "rule_catalog",
    "sort_diagnostics",
    "validate_rule_patterns",
    "walk_model",
]
