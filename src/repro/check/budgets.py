"""Priced-timed budget analysis of the compiled transition system (C6xx).

The C1xx/C2xx checker answers *qualitative* questions — can the model
deadlock, can a live domain lose its clock.  This module answers the
*quantitative* ones the paper's evaluation hangs on: how long can the
worst-case exit path take (Sec. 7 measures ~300 us), how long must the
platform stay in DRIPS before a technique's transition overhead pays for
itself (Fig. 6(a): 6.3-7.4 ms), and how much energy one connected-standby
cycle must cost at minimum.

It works in two phases:

1. **Pricing.**  One short probe cycle runs the real simulator
   (:func:`probe_standby_cycle`) and reads, from the trace, the latency
   of every entry/exit flow step and the
   :class:`~repro.measure.residency.CyclePrice` of the first
   entry-to-entry cycle (entry, DRIPS, exit and active dwell and
   energy).  All arithmetic downstream is exact
   :class:`~fractions.Fraction` — the derived numbers are correctly
   rounded, never accumulated in floating point.
2. **Analysis.**  :func:`analyze_budgets` prices every edge of the
   compiled :class:`~repro.check.ts.TransitionSystem` with its step
   latency plus the chipset's declared worst-case allowance (a flow step
   that synchronizes to the 32.768 kHz clock can wait up to one full slow
   period beyond what one probe observed), then takes worst-case paths
   over the *reachable* composed state space: longest entry path from the
   active state into each deep state, longest exit path back out.  The
   derived figures are gated against the platform's declaration
   (``budget_description()``) through rules C601-C605.

The derived break-even cross-checks :mod:`repro.analysis.breakeven`: both
model the fixed-period cycle of Sec. 7, so the static number must agree
with the dynamic two-point sweep within the declared differential
tolerance (exercised by the acceptance tests).
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.check.rules import C601_RULE, C602_RULE, C603_RULE, C604_RULE, C605_RULE
from repro.check.ts import ComposedState, TransitionSystem
from repro.lint.diagnostics import Diagnostic
from repro.lint.model import ModelView
from repro.measure.residency import CyclePrice, merge_state_power
from repro.units import PICOSECONDS_PER_SECOND, seconds_to_ps

#: Fallback probe cycle when the declaration is missing or malformed.
_DEFAULT_PROBE_IDLE_S = 0.004
_DEFAULT_PROBE_MAINTENANCE_S = 0.002


# ---------------------------------------------------------------------------
# Phase 1: pricing — probe one standby cycle and read the trace
# ---------------------------------------------------------------------------


def probe_standby_cycle(
    config: Any = None,
    techniques: Any = None,
    idle_s: float = _DEFAULT_PROBE_IDLE_S,
    maintenance_s: float = _DEFAULT_PROBE_MAINTENANCE_S,
) -> Dict[str, Any]:
    """Run one short connected-standby cycle and price its trace.

    Returns the per-step latencies of the first entry/exit flow
    execution and, from the :class:`~repro.measure.residency.CyclePrice`
    of the first entry-to-entry cycle, the entry/exit latencies and
    energies and the mean DRIPS and active power levels.  Energies and
    powers are :class:`~fractions.Fraction`; latencies are integer
    picoseconds.
    The flows are workload-independent, so one short cycle prices them
    the same as a 30 s production cycle would.
    """
    from repro.core.techniques import TechniqueSet
    from repro.system.skylake import SkylakePlatform
    from repro.system.states import FLOW_CHANNEL, STATE_CHANNEL, PlatformState
    from repro.workloads.standby import ConnectedStandbyRunner

    techniques = techniques if techniques is not None else TechniqueSet.odrips()
    platform = SkylakePlatform(config=config, techniques=techniques)
    runner = ConnectedStandbyRunner(
        platform, idle_interval_s=idle_s, maintenance_s=maintenance_s
    )
    runner.run(cycles=1)

    trace = platform.trace
    samples = trace.samples(FLOW_CHANNEL)

    # Per-step latency: each step's window runs until the next step of
    # the *same flow*; the last step of a flow is an instantaneous marker
    # (its successor interval is residency, not step work).
    steps: Dict[str, Dict[str, int]] = {}
    for index, sample in enumerate(samples):
        label = str(sample.value)
        if label in steps:
            continue  # price the first execution only
        latency = 0
        if index + 1 < len(samples):
            next_label = str(samples[index + 1].value)
            same_flow = label.split(":", 1)[0] == next_label.split(":", 1)[0]
            if same_flow:
                latency = samples[index + 1].time_ps - sample.time_ps
        steps[label] = {"latency_ps": latency}

    # The first entry-to-entry cycle (the runner executes cycles+1 wakes,
    # so the second entry flow always starts): entry, DRIPS, exit, active.
    entries = [
        sample.time_ps
        for sample in trace.samples(STATE_CHANNEL)
        if sample.value == PlatformState.ENTRY.value
    ]
    if len(entries) < 2:
        raise RuntimeError("probe run completed no entry-to-entry cycle")
    price = CyclePrice.of(merge_state_power(trace, entries[0], entries[1]))
    entry, exit_ = PlatformState.ENTRY.value, PlatformState.EXIT.value
    return {
        "technique_label": techniques.label(),
        "idle_s": idle_s,
        "maintenance_s": maintenance_s,
        "steps": steps,
        "entry_latency_ps": price.dwell_ps[entry],
        "exit_latency_ps": price.dwell_ps[exit_],
        "entry_energy_j": price.energy_j[entry],
        "exit_energy_j": price.energy_j[exit_],
        "drips_power_w": price.power_w(PlatformState.DRIPS.value),
        "active_power_w": price.power_w(PlatformState.ACTIVE.value),
    }


# ---------------------------------------------------------------------------
# Phase 2: worst-case paths over the priced transition system
# ---------------------------------------------------------------------------


def _reachable(ts: TransitionSystem) -> List[ComposedState]:
    seen = {ts.initial}
    queue = deque([ts.initial])
    order = [ts.initial]
    while queue:
        state = queue.popleft()
        edges, _blocked = ts.successors(state)
        for _label, target in edges:
            if target not in seen:
                seen.add(target)
                queue.append(target)
                order.append(target)
    return order


def _edge_weight_ps(
    label: str,
    step_latencies: Dict[str, int],
    allowances: Dict[str, int],
) -> int:
    """Worst-case picoseconds attributed to taking one priced edge.

    Flow-step edges (``flow:step`` labels) cost their probed latency plus
    the chipset's declared phase allowance; FSM edges are instantaneous
    state relabelings and cost nothing.
    """
    if ":" not in label:
        return 0
    probed = step_latencies.get(label, 0)
    return probed + allowances.get(label, 0)


def _worst_path(
    ts: TransitionSystem,
    starts: Sequence[ComposedState],
    goal_fsm: str,
    step_latencies: Dict[str, int],
    allowances: Dict[str, int],
) -> Optional[Tuple[int, Tuple[str, ...]]]:
    """Longest priced path from any of ``starts`` to a ``goal_fsm`` state.

    The relevant segments (a flow run plus its terminal FSM hop) are
    acyclic — step indices strictly increase — so a memoized DFS with an
    on-stack cycle guard is exact: a cycle that avoids the goal cannot be
    part of a worst *finite* path (unbounded cycles are C103's business,
    not a latency figure).
    """
    memo: Dict[ComposedState, Optional[Tuple[int, Tuple[str, ...]]]] = {}
    on_stack: set = set()

    def longest_from(state: ComposedState) -> Optional[Tuple[int, Tuple[str, ...]]]:
        if state.fsm == goal_fsm:
            return (0, ())
        if state in memo:
            return memo[state]
        if state in on_stack:
            return None
        on_stack.add(state)
        best: Optional[Tuple[int, Tuple[str, ...]]] = None
        edges, _blocked = ts.successors(state)
        for label, target in edges:
            sub = longest_from(target)
            if sub is None:
                continue
            weight = _edge_weight_ps(label, step_latencies, allowances)
            candidate = (weight + sub[0], (label,) + sub[1])
            if best is None or candidate[0] > best[0]:
                best = candidate
        on_stack.discard(state)
        memo[state] = best
        return best

    overall: Optional[Tuple[int, Tuple[str, ...]]] = None
    for start in starts:
        result = longest_from(start)
        if result is not None and (overall is None or result[0] > overall[0]):
            overall = result
    return overall


# ---------------------------------------------------------------------------
# Declaration parsing
# ---------------------------------------------------------------------------


def _parse_state_entry(name: str, entry: Any) -> Tuple[Optional[Dict[str, Any]], str]:
    """Validate one deep-state budget declaration; return (parsed, error)."""
    if not isinstance(entry, dict):
        return None, f"declaration for {name} is not a mapping"
    budget = entry.get("wake_budget_ps")
    if not isinstance(budget, int) or isinstance(budget, bool) or budget <= 0:
        return None, f"{name}: wake_budget_ps must be a positive integer (ps)"
    guarantee = entry.get("residency_guarantee_s")
    if not isinstance(guarantee, (int, float)) or isinstance(guarantee, bool) or guarantee <= 0:
        return None, f"{name}: residency_guarantee_s must be a positive number"
    declared = entry.get("break_even_s")
    if declared is not None and (
        not isinstance(declared, (int, float)) or isinstance(declared, bool) or declared <= 0
    ):
        return None, f"{name}: break_even_s must be a positive number or None"
    tolerance = entry.get("break_even_tolerance")
    if not isinstance(tolerance, (int, float)) or isinstance(tolerance, bool) or not (
        0 < tolerance < 1
    ):
        return None, f"{name}: break_even_tolerance must be in (0, 1)"
    return {
        "wake_budget_ps": budget,
        "residency_guarantee_s": float(guarantee),
        "break_even_s": None if declared is None else float(declared),
        "break_even_tolerance": float(tolerance),
    }, ""


def _golden_limit_j(golden_spec: Any, period_s: Fraction) -> Tuple[Optional[Fraction], str]:
    """Resolve the per-cycle energy ceiling from the experiment registry.

    The declaration names a registered golden (experiment + metric key);
    a power golden is converted to joules over the declared cycle period.
    Resolved lazily so the checker does not import the experiment drivers
    unless budgets are actually analyzed.
    """
    if not isinstance(golden_spec, dict):
        return None, "cycle.golden must be a mapping"
    experiment = golden_spec.get("experiment")
    key = golden_spec.get("key")
    scale = golden_spec.get("scale", 1.0)
    if not isinstance(experiment, str) or not isinstance(key, str):
        return None, "cycle.golden must name an experiment and a metric key"
    if not isinstance(scale, (int, float)) or isinstance(scale, bool) or scale <= 0:
        return None, "cycle.golden scale must be a positive number"
    from repro.core.experiments import EXPERIMENTS

    spec = EXPERIMENTS.get(experiment)
    if spec is None:
        return None, f"cycle.golden references unknown experiment {experiment!r}"
    for golden in spec.goldens:
        if golden.key == key:
            ceiling_w = Fraction(golden.paper + golden.tolerance) * Fraction(str(scale))
            return ceiling_w * period_s, ""
    return None, f"experiment {experiment!r} declares no golden {key!r}"


# ---------------------------------------------------------------------------
# The analysis
# ---------------------------------------------------------------------------


def _ladder_rows(active_power_w: Fraction) -> Dict[str, Dict[str, float]]:
    """Derived figures for the shallow C-state ladder (C2/C6/C8).

    Each shallow state is priced from the processor tables the PMU uses:
    5 us of entry work at active power, exit at the floor power the flow
    holds (Sec. 2.2's LTR weighing).  Break-even is against the
    next-shallower ladder state (active for C2).
    """
    from repro.processor.cstates import CSTATE_EXIT_LATENCY_PS, CSTATE_POWER_WATTS, CState

    entry_ps = 5_000_000
    rows: Dict[str, Dict[str, float]] = {}
    ladder = [CState.C2, CState.C6, CState.C8]
    for index, state in enumerate(ladder):
        power = Fraction(str(CSTATE_POWER_WATTS[state]))
        exit_ps = CSTATE_EXIT_LATENCY_PS[state]
        exit_power = max(power, Fraction(3, 10))
        overhead_j = (
            active_power_w * Fraction(entry_ps, PICOSECONDS_PER_SECOND)
            + exit_power * Fraction(exit_ps, PICOSECONDS_PER_SECOND)
        )
        shallower_w = (
            active_power_w
            if index == 0
            else Fraction(str(CSTATE_POWER_WATTS[ladder[index - 1]]))
        )
        delta = shallower_w - power
        rows[state.name] = {
            "power_w": float(power),
            "entry_latency_ps": entry_ps,
            "exit_latency_ps": exit_ps,
            "transition_overhead_j": float(overhead_j),
            "break_even_s": float(overhead_j / delta) if delta > 0 else None,
        }
    return rows


def derive_technique_break_even(
    probe_self: Dict[str, Any],
    probe_baseline: Dict[str, Any],
    maintenance_s: Optional[float] = None,
) -> Fraction:
    """Exact break-even residency of a technique set against the baseline.

    Models the fixed-period cycle of the Sec. 7 sweep (period = idle +
    maintenance + ``BASE_TRANSITIONS_S``): relative to the baseline, the
    technique changes the per-cycle energy by its extra transition energy,
    its active-power delta over the maintenance burst (the new AON
    hardware draws in every state), and the residency each configuration
    loses to its own transition time — and saves ``dP_drips`` per second
    of residency.  Setting the saving to zero and solving for the idle
    time gives the crossing — the same quantity
    :func:`repro.analysis.breakeven.find_break_even` measures dynamically
    with a two-point fit.
    """
    from repro.analysis.breakeven import BASE_TRANSITIONS_S, SWEEP_MAINTENANCE_S

    if maintenance_s is None:
        maintenance_s = SWEEP_MAINTENANCE_S
    t0 = Fraction(seconds_to_ps(BASE_TRANSITIONS_S), PICOSECONDS_PER_SECOND)
    p_b = Fraction(probe_baseline["drips_power_w"])
    p_t = Fraction(probe_self["drips_power_w"])
    if p_b <= p_t:
        raise ValueError("technique does not reduce DRIPS power; no break-even")
    e_b = Fraction(probe_baseline["entry_energy_j"]) + Fraction(probe_baseline["exit_energy_j"])
    e_t = Fraction(probe_self["entry_energy_j"]) + Fraction(probe_self["exit_energy_j"])
    t_b = Fraction(
        int(probe_baseline["entry_latency_ps"]) + int(probe_baseline["exit_latency_ps"]),
        PICOSECONDS_PER_SECOND,
    )
    t_t = Fraction(
        int(probe_self["entry_latency_ps"]) + int(probe_self["exit_latency_ps"]),
        PICOSECONDS_PER_SECOND,
    )
    active_delta = Fraction(probe_self["active_power_w"]) - Fraction(
        probe_baseline["active_power_w"]
    )
    overhead = (
        (e_t - e_b)
        + active_delta * Fraction(str(maintenance_s))
        + p_b * (t_b - t0)
        - p_t * (t_t - t0)
    )
    return max(Fraction(0), overhead / (p_b - p_t))


def analyze_budgets(
    view: ModelView,
    ts: TransitionSystem,
    probes: Optional[Dict[str, Dict[str, Any]]] = None,
    config: Any = None,
    techniques: Any = None,
) -> Tuple[Dict[str, Any], List[Diagnostic]]:
    """Verify the platform's declared budgets against derived figures.

    ``probes`` injects pre-computed pricing (``{"self": ..., "baseline":
    ...}``) — the mutation tests use this to perturb one price at a time;
    when omitted, :func:`probe_standby_cycle` runs for the checked
    configuration and (when it is not the baseline) for the baseline.

    Returns the JSON-able budget summary and the C601-C605 diagnostics.
    """
    diagnostics: List[Diagnostic] = []
    declaration = view.budgets if isinstance(view.budgets, dict) else None
    if view.budgets is not None and declaration is None:
        declaration = {}

    deep_decls: Dict[str, Dict[str, Any]] = {}
    raw_states = (declaration or {}).get("deep_states")
    if declaration is not None and not isinstance(raw_states, dict):
        diagnostics.append(
            C604_RULE.diagnostic(
                "budget declaration has no deep_states mapping",
                obj="budget_description",
                hint="budget_description() must declare a deep_states dict "
                "keyed by FSM state name",
            )
        )
        raw_states = {}
    for state_name in ts.idle_states:
        entry = (raw_states or {}).get(state_name) if declaration is not None else None
        if declaration is None:
            diagnostics.append(
                C604_RULE.diagnostic(
                    f"deep state {state_name} reachable but the platform declares "
                    "no budgets (no budget_description() hook)",
                    obj=state_name,
                    hint="declare wake_budget_ps, residency_guarantee_s and "
                    "break-even budgets via budget_description()",
                )
            )
            continue
        if entry is None:
            diagnostics.append(
                C604_RULE.diagnostic(
                    f"deep state {state_name} has no budget declaration",
                    obj=state_name,
                    hint="add the state to deep_states in budget_description()",
                )
            )
            continue
        parsed, error = _parse_state_entry(state_name, entry)
        if parsed is None:
            diagnostics.append(
                C604_RULE.diagnostic(
                    f"unparseable budget declaration: {error}",
                    obj=state_name,
                )
            )
            continue
        deep_decls[state_name] = parsed

    # --- pricing ---------------------------------------------------------
    probe_params = (declaration or {}).get("probe") or {}
    idle_s = probe_params.get("idle_s", _DEFAULT_PROBE_IDLE_S)
    maintenance_s = probe_params.get("maintenance_s", _DEFAULT_PROBE_MAINTENANCE_S)
    if probes is None:
        from repro.core.techniques import TechniqueSet

        techniques = techniques if techniques is not None else TechniqueSet.odrips()
        probes = {
            "self": probe_standby_cycle(config, techniques, idle_s, maintenance_s)
        }
        if not techniques.is_baseline:
            probes["baseline"] = probe_standby_cycle(
                config, TechniqueSet.baseline(), idle_s, maintenance_s
            )
    probe_self = probes["self"]
    probe_baseline = probes.get("baseline")

    step_latencies = {
        label: int(entry["latency_ps"]) for label, entry in probe_self["steps"].items()
    }
    allowances_raw = ((declaration or {}).get("chipset") or {}).get(
        "step_allowances_ps"
    ) or {}
    allowances = {
        str(label): int(value)
        for label, value in allowances_raw.items()
        if isinstance(value, int) and not isinstance(value, bool)
    }

    reachable = _reachable(ts)
    active_resident = [s for s in reachable if s.fsm == ts.active and s.flow is None]
    drips_power_w = Fraction(probe_self["drips_power_w"])
    active_power_w = Fraction(probe_self["active_power_w"])
    entry_energy_j = Fraction(probe_self["entry_energy_j"])
    exit_energy_j = Fraction(probe_self["exit_energy_j"])

    summary: Dict[str, Any] = {
        "version": 1,
        "technique_label": probe_self.get("technique_label"),
        "active_power_w": float(active_power_w),
        "deep_states": {},
        "ladder": _ladder_rows(active_power_w),
        "probe": {"idle_s": idle_s, "maintenance_s": maintenance_s},
    }

    # --- per deep state: worst-case paths and break-even ------------------
    technique_break_even: Optional[Fraction] = None
    if probe_baseline is not None:
        cycle_maintenance = ((declaration or {}).get("cycle") or {}).get(
            "maintenance_mean_s"
        )
        if not isinstance(cycle_maintenance, (int, float)) or isinstance(
            cycle_maintenance, bool
        ):
            cycle_maintenance = None
        try:
            technique_break_even = derive_technique_break_even(
                probe_self, probe_baseline, maintenance_s=cycle_maintenance
            )
        except ValueError:
            technique_break_even = None

    for state_name in ts.idle_states:
        resident = [s for s in reachable if s.fsm == state_name and s.flow is None]
        worst_exit = _worst_path(ts, resident, ts.active, step_latencies, allowances)
        worst_entry = _worst_path(
            ts, active_resident, state_name, step_latencies, allowances
        )

        # Break-even of residing in this deep state: against the baseline
        # configuration of the same state when a technique set is under
        # check, otherwise against the deepest shallow ladder state (C8).
        ladder_c8 = summary["ladder"].get("C8", {})
        if technique_break_even is not None:
            break_even: Optional[Fraction] = technique_break_even
            break_even_vs = "baseline"
        else:
            c8_power = Fraction(str(ladder_c8.get("power_w", 0.0)))
            c8_overhead = Fraction(str(ladder_c8.get("transition_overhead_j", 0.0)))
            delta = c8_power - drips_power_w
            if delta > 0:
                overhead = entry_energy_j + exit_energy_j - c8_overhead
                break_even = max(Fraction(0), overhead / delta)
                break_even_vs = "C8"
            else:
                break_even = None
                break_even_vs = None

        row: Dict[str, Any] = {
            "power_w": float(drips_power_w),
            "entry_energy_j": float(entry_energy_j),
            "exit_energy_j": float(exit_energy_j),
            "worst_entry_latency_ps": None if worst_entry is None else worst_entry[0],
            "worst_entry_path": None if worst_entry is None else list(worst_entry[1]),
            "worst_exit_latency_ps": None if worst_exit is None else worst_exit[0],
            "worst_exit_path": None if worst_exit is None else list(worst_exit[1]),
            "break_even_s": None if break_even is None else float(break_even),
            "break_even_vs": break_even_vs,
        }
        decl = deep_decls.get(state_name)
        if decl is not None:
            row.update(
                {
                    "wake_budget_ps": decl["wake_budget_ps"],
                    "residency_guarantee_s": decl["residency_guarantee_s"],
                    "declared_break_even_s": decl["break_even_s"],
                }
            )
            # C601: worst-case exit latency vs the wake budget.
            if worst_exit is not None and worst_exit[0] > decl["wake_budget_ps"]:
                witness = " -> ".join(worst_exit[1])
                diagnostics.append(
                    C601_RULE.diagnostic(
                        f"worst-case exit from {state_name} takes "
                        f"{worst_exit[0]} ps, over the declared wake budget of "
                        f"{decl['wake_budget_ps']} ps",
                        obj=state_name,
                        hint=f"witness path: {witness}",
                    )
                )
            # C602: guaranteed residency vs derived break-even.
            if break_even is not None and Fraction(
                str(decl["residency_guarantee_s"])
            ) < break_even:
                diagnostics.append(
                    C602_RULE.diagnostic(
                        f"{state_name} is entered with a guaranteed residency of "
                        f"{decl['residency_guarantee_s']} s, below the derived "
                        f"break-even of {float(break_even):.6f} s "
                        f"(vs {break_even_vs})",
                        obj=state_name,
                        hint="entering costs more energy than it saves; raise the "
                        "residency floor or cut the transition overhead",
                    )
                )
            # C603: declared break-even constant vs the derived one.
            declared = decl["break_even_s"]
            if declared is not None and break_even is not None:
                drift = abs(Fraction(str(declared)) - break_even) / Fraction(
                    str(declared)
                )
                if drift > Fraction(str(decl["break_even_tolerance"])):
                    diagnostics.append(
                        C603_RULE.diagnostic(
                            f"{state_name} declares a break-even of {declared} s "
                            f"but the model derives {float(break_even):.6f} s "
                            f"({float(drift) * 100:.1f}% drift, tolerance "
                            f"{decl['break_even_tolerance'] * 100:.0f}%)",
                            obj=state_name,
                            hint="re-derive the paper constant or fix the "
                            "transition prices that moved",
                        )
                    )
        summary["deep_states"][state_name] = row

    # --- per-cycle energy lower bound (C605) ------------------------------
    cycle_decl = (declaration or {}).get("cycle")
    if isinstance(cycle_decl, dict):
        from repro.analysis.breakeven import BASE_TRANSITIONS_S

        idle_interval = cycle_decl.get("idle_interval_s")
        maintenance_mean = cycle_decl.get("maintenance_mean_s")
        if isinstance(idle_interval, (int, float)) and isinstance(
            maintenance_mean, (int, float)
        ):
            period_s = (
                Fraction(str(idle_interval))
                + Fraction(str(maintenance_mean))
                + Fraction(str(BASE_TRANSITIONS_S))
            )
            # Strict lower bound: one entry, one exit, the full idle
            # interval at DRIPS power — the maintenance burst is floored
            # at zero energy, so any real cycle costs at least this much.
            lower_bound_j = (
                entry_energy_j
                + exit_energy_j
                + drips_power_w * Fraction(str(idle_interval))
            )
            limit_j, error = _golden_limit_j(cycle_decl.get("golden"), period_s)
            cycle_summary: Dict[str, Any] = {
                "period_s": float(period_s),
                "energy_lower_bound_j": float(lower_bound_j),
                "golden_limit_j": None if limit_j is None else float(limit_j),
                "golden": cycle_decl.get("golden"),
            }
            summary["cycle"] = cycle_summary
            if limit_j is None:
                diagnostics.append(
                    C604_RULE.diagnostic(
                        f"unparseable budget declaration: {error}",
                        obj="cycle",
                    )
                )
            elif lower_bound_j > limit_j:
                diagnostics.append(
                    C605_RULE.diagnostic(
                        f"per-cycle energy lower bound {float(lower_bound_j):.4f} J "
                        f"exceeds the golden ceiling {float(limit_j):.4f} J over a "
                        f"{float(period_s):.3f} s cycle",
                        obj="cycle",
                        hint="the model cannot possibly meet the paper's "
                        "average-power figure; a price regressed",
                    )
                )
        else:
            diagnostics.append(
                C604_RULE.diagnostic(
                    "unparseable budget declaration: cycle must declare "
                    "idle_interval_s and maintenance_mean_s",
                    obj="cycle",
                )
            )
    elif declaration is not None:
        diagnostics.append(
            C604_RULE.diagnostic(
                "budget declaration has no cycle section",
                obj="cycle",
                hint="declare idle_interval_s, maintenance_mean_s and the "
                "golden figure for the per-cycle energy bound",
            )
        )

    return summary, diagnostics
