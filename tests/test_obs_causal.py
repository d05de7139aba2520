"""Causal wake-attribution tests: edges, chains, rollups, export.

Covers the causal layer end to end: the causal edges the instrumented
seams record, the wake-chain graph and per-cause energy rollups of
``repro.obs.causal``, the flow critical-path decomposition, the
Perfetto export of MACRO_TRACK summary spans and flow arrows
(round-trip: export -> parse JSON -> causal edges intact), and the
purity gate — measurements are bit-for-bit identical with causal
tracing on or off.
"""

from __future__ import annotations

import json
import math

import pytest

from repro import obs
from repro.core.odrips import ODRIPSController
from repro.measure.residency import clipped_intervals
from repro.obs.causal import (
    _MACRO_STATE,
    CAUSE_IDLE,
    CAUSE_MAINTENANCE,
    _causal_segments,
    _macro_rollups,
    attribution_cells,
    build_causal_report,
    flow_critical_paths,
    wake_cause,
)
from repro.obs.export import chrome_trace, jsonl_lines
from repro.obs.hook import observe
from repro.obs.tracer import (
    EDGE_COMPILED,
    EDGE_DELIVERY,
    EDGE_FOLLOWUP,
    EDGE_TRIGGER,
    MACRO_TRACK,
    Tracer,
)
from repro.perf.fingerprint import canonical

EDGE_KINDS = {EDGE_DELIVERY, EDGE_TRIGGER, EDGE_FOLLOWUP, EDGE_COMPILED}


@pytest.fixture(scope="module")
def session():
    return obs.run_traced("fig2", cycles=2)


@pytest.fixture(scope="module")
def macro_session():
    """An observed macro-stepped run (most cycles compiled)."""
    tracer = Tracer()
    with observe(tracer=tracer):
        measurement = ODRIPSController().measure(cycles=12, macro=True)
    assert measurement.macro is not None
    assert measurement.macro["cycles_compiled"] > 0
    return tracer, tracer.platforms[-1], measurement


def _observed(request, fixture):
    """``(tracer, platform)`` of the ``session`` or ``macro_session`` fixture."""
    observed = request.getfixturevalue(fixture)
    if fixture == "session":
        return observed.tracer, observed.platform
    tracer, platform, _measurement = observed
    return tracer, platform


def _product(watts, lo, hi):
    """The reference energy of one segment: watts times its seconds."""
    return watts * ((hi - lo) / 1e12)


class TestCausalEdges:
    def test_seams_record_every_edge_kind_but_compiled(self, session):
        kinds = {edge.kind for edge in session.tracer.edges}
        assert {EDGE_DELIVERY, EDGE_TRIGGER, EDGE_FOLLOWUP} <= kinds
        assert kinds <= EDGE_KINDS

    def test_edges_reference_existing_records(self, session):
        spans = set(map(id, session.tracer.spans))
        instants = set(map(id, session.tracer.instants))
        for edge in session.tracer.edges:
            assert id(edge.source) in spans | instants
            assert id(edge.target) in spans | instants

    def test_macro_run_records_compiled_edges(self, macro_session):
        tracer, _platform, measurement = macro_session
        compiled = [e for e in tracer.edges if e.kind == EDGE_COMPILED]
        assert len(compiled) == measurement.macro["macro_steps"]
        for edge in compiled:
            assert edge.target.track == MACRO_TRACK


class TestWakeChains:
    def test_every_window_wake_has_a_chain(self, session):
        report = build_causal_report(session.tracer, session.platform)
        start_ps, end_ps = session.tracer.window_ps
        in_window = [
            e for e in session.platform.wake_log if start_ps <= e.time_ps < end_ps
        ]
        assert len(report.chains) == len(in_window)
        for chain in report.chains:
            assert chain.cause == wake_cause("timer")
            assert chain.exit_span is not None
            assert chain.exit_latency_ps > 0

    def test_macro_wakes_collapse_into_aggregated_chains(self, macro_session):
        tracer, platform, _measurement = macro_session
        report = build_causal_report(tracer, platform)
        compiled_chains = [c for c in report.chains if c.macro_span is not None]
        assert compiled_chains
        assert sum(c.cycles for c in report.chains) == len(
            [
                e
                for e in platform.wake_log
                if report.start_ps <= e.time_ps < report.end_ps
            ]
        )
        digest = compiled_chains[0].as_dict()
        assert digest["compiled"] is True and digest["cycles"] > 1


class TestCauseRollups:
    def test_rollups_account_for_every_joule(self, session):
        report = build_causal_report(session.tracer, session.platform)
        assert report.total_energy_j == pytest.approx(
            session.ledger.total_energy_j, rel=1e-9
        )

    def test_rollups_account_for_every_picosecond(self, session):
        report = build_causal_report(session.tracer, session.platform)
        assert sum(r.dwell_ps for r in report.rollups.values()) == report.window_ps

    def test_expected_causes_present(self, session):
        report = build_causal_report(session.tracer, session.platform)
        assert {CAUSE_IDLE, CAUSE_MAINTENANCE, wake_cause("timer")} <= set(
            report.rollups
        )
        assert report.ranked_rollups()[0].cause == CAUSE_IDLE  # DRIPS dominates

    def test_macro_rollups_match_exact_rollups(self, macro_session):
        """Per-cycle attribution on the summary span decomposes the skip."""
        tracer, platform, _measurement = macro_session
        exact_tracer = Tracer()
        with observe(tracer=exact_tracer):
            ODRIPSController().measure(cycles=12, macro=False)
        exact = build_causal_report(exact_tracer, exact_tracer.platforms[-1])
        compiled = build_causal_report(tracer, platform)
        assert set(exact.rollups) == set(compiled.rollups)
        for cause, rollup in exact.rollups.items():
            assert compiled.rollups[cause].energy_j == pytest.approx(
                rollup.energy_j, rel=1e-6
            )
            assert compiled.rollups[cause].events == rollup.events


class TestPricedFromCausalSegments:
    """Rollups and cells are per-key correctly rounded sums of the same
    segment products, bit-for-bit, on exact and macro-stepped windows."""

    @pytest.mark.parametrize("fixture", ["session", "macro_session"])
    def test_rollup_energies_are_per_cause_fsums(self, request, fixture):
        tracer, platform = _observed(request, fixture)
        start_ps, end_ps = tracer.window_ps
        macro_part = {}
        products = {}
        for lo, hi, state, cause, watts in _causal_segments(platform, start_ps, end_ps):
            if state == _MACRO_STATE and _macro_rollups(tracer, macro_part, lo, hi):
                continue
            products.setdefault(cause, []).append(_product(watts, lo, hi))
        assert products and (fixture == "session") == (not macro_part)
        rollups = build_causal_report(tracer, platform).rollups
        assert set(rollups) >= set(products) | set(macro_part)
        for cause, rollup in rollups.items():
            macro_j = macro_part[cause].energy_j if cause in macro_part else 0.0
            assert rollup.energy_j == macro_j + math.fsum(products.get(cause, []))

    @pytest.mark.parametrize("fixture", ["session", "macro_session"])
    def test_cell_energies_are_per_cell_fsums(self, request, fixture):
        tracer, platform = _observed(request, fixture)
        start_ps, end_ps = tracer.window_ps
        segments = _causal_segments(platform, start_ps, end_ps)
        products = {}
        for channel in platform.trace.channels():
            if not channel.startswith("rail:"):
                continue
            rail = channel[len("rail:"):]
            for i_lo, i_hi, watts in clipped_intervals(
                platform.trace, channel, start_ps, end_ps
            ):
                for lo, hi, state, cause, _watts in segments:
                    lo, hi = max(lo, i_lo), min(hi, i_hi)
                    if hi > lo:
                        products.setdefault((rail, state, cause), []).append(
                            _product(watts, lo, hi)
                        )
        expected = {cell: math.fsum(values) for cell, values in products.items()}
        assert attribution_cells(tracer, platform) == expected


class TestCriticalPaths:
    def test_steps_tile_their_flow(self, session):
        for path in flow_critical_paths(session.tracer):
            assert path.steps, f"{path.flow} has no step decomposition"
            assert sum(total for _label, total, _count in path.steps) == path.total_ps

    def test_steps_ranked_by_total_latency(self, session):
        for path in flow_critical_paths(session.tracer):
            totals = [total for _label, total, _count in path.steps]
            assert totals == sorted(totals, reverse=True)


class TestAttributionCells:
    def test_cells_sum_to_ledger_total(self, session):
        cells = attribution_cells(session.tracer, session.platform)
        assert math.fsum(cells.values()) == pytest.approx(
            session.ledger.total_energy_j, rel=1e-9
        )

    def test_cell_domains_match_ledger_domains(self, session):
        cells = attribution_cells(session.tracer, session.platform)
        assert {domain for domain, _s, _c in cells} == set(
            session.ledger.domain_energy_j
        )


class TestPerfettoRoundTrip:
    def test_flow_arrows_round_trip(self, session):
        """Export -> parse JSON -> the causal edge set is intact."""
        payload = json.loads(
            json.dumps(chrome_trace(session.tracer, platform=session.platform))
        )
        arrows = [e for e in payload["traceEvents"] if e["ph"] in ("s", "f")]
        starts = {e["id"]: e for e in arrows if e["ph"] == "s"}
        finishes = {e["id"]: e for e in arrows if e["ph"] == "f"}
        assert len(starts) == len(finishes) == len(session.tracer.edges)
        for index, edge in enumerate(session.tracer.edges):
            start, finish = starts[index], finishes[index]
            assert start["name"] == finish["name"] == edge.kind
            assert start["cat"] == finish["cat"] == "causal"
            assert finish["bp"] == "e"
            assert start["ts"] <= finish["ts"]
        assert payload["otherData"]["edges"] == len(session.tracer.edges)

    def test_macro_summary_spans_exported_with_attribution(self, macro_session):
        tracer, platform, measurement = macro_session
        payload = json.loads(json.dumps(chrome_trace(tracer, platform=platform)))
        spans = [
            e
            for e in payload["traceEvents"]
            if e["ph"] == "X"
            and e["name"].startswith("macro:compiled")
            and "cycles" in e.get("args", {})
        ]
        assert len(spans) == measurement.macro["macro_steps"]
        compiled = 0
        for span in spans:
            args = span["args"]
            compiled += args["cycles"]
            assert args["wake_type"] == "timer"
            assert args["period_ps"] > 0
            assert set(args["cycle_state_energy_j"]) == set(
                args["cycle_state_dwell_ps"]
            )
        assert compiled == measurement.macro["cycles_compiled"]

    def test_jsonl_carries_edge_records(self, session):
        edges = [
            json.loads(line)
            for line in jsonl_lines(session.tracer)
            if json.loads(line).get("type") == "edge"
        ]
        assert len(edges) == len(session.tracer.edges)
        for record, edge in zip(edges, session.tracer.edges):
            assert record["kind"] == edge.kind
            assert record["source"]["track"] == edge.source.track
            assert record["target"]["track"] == edge.target.track


class TestCausalPurity:
    def test_exact_measurement_bit_identical_with_causal_tracing(self):
        dark = ODRIPSController().measure(cycles=1)
        with observe(tracer=Tracer()):
            lit = ODRIPSController().measure(cycles=1)
        assert json.dumps(canonical(vars(dark)), sort_keys=True) == json.dumps(
            canonical(vars(lit)), sort_keys=True
        )

    def test_macro_measurement_bit_identical_with_causal_tracing(self):
        dark = ODRIPSController().measure(cycles=12, macro=True)
        with observe(tracer=Tracer()):
            lit = ODRIPSController().measure(cycles=12, macro=True)
        assert json.dumps(canonical(vars(dark)), sort_keys=True) == json.dumps(
            canonical(vars(lit)), sort_keys=True
        )

    def test_building_the_report_is_read_only(self, session):
        before = (
            len(session.tracer.spans),
            len(session.tracer.instants),
            len(session.tracer.edges),
            len(session.platform.trace),
        )
        build_causal_report(session.tracer, session.platform)
        attribution_cells(session.tracer, session.platform)
        after = (
            len(session.tracer.spans),
            len(session.tracer.instants),
            len(session.tracer.edges),
            len(session.platform.trace),
        )
        assert before == after
