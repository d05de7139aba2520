"""Tolerance policies of the regression watchdog.

Two families of checks feed ``python -m repro report``:

* **Paper-fidelity goldens** — the :class:`~repro.core.experiments.GoldenValue`
  declarations on each registered experiment driver
  (:data:`repro.core.experiments.EXPERIMENTS`): the published figure, the
  tolerance the reproduction is allowed to drift by, and the comparison
  kind (absolute, relative, ceiling, floor).
* **Benchmark policies** — floors and ceilings over the figures the
  microbenchmark harness writes to ``BENCH_perf.json``: speedups the
  perf work must keep, and the tracer-overhead ceiling the observability
  work must stay under.

A ``--baseline`` JSON file can override either family field-by-field::

    {
      "goldens": {"fig2": {"drips_power_mw": {"paper": 61.0}}},
      "benches": {"analyzer_fast_path": {"speedup": {"limit": 10.0}}}
    }

Overrides are how CI pins a project-specific baseline — and how the
acceptance test injects a perturbed golden to prove the watchdog trips.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.experiments import EXPERIMENTS, GOLDEN_KINDS, GoldenValue
from repro.errors import ConfigError

#: Comparison kinds a benchmark policy supports.
BENCH_KINDS = ("floor", "ceiling")

#: Baseline-overridable fields per policy family.
_GOLDEN_FIELDS = ("paper", "tolerance", "kind")
_BENCH_FIELDS = ("limit", "kind")


@dataclass(frozen=True)
class BenchPolicy:
    """A floor or ceiling over one ``BENCH_perf.json`` figure."""

    bench: str
    metric: str
    kind: str  # "floor" | "ceiling"
    limit: float
    reason: str

    def evaluate(self, value: float) -> Dict[str, Any]:
        """JSON-able verdict for one measured benchmark figure."""
        if self.kind == "floor":
            within = value >= self.limit
        else:
            within = value <= self.limit
        return {
            "bench": self.bench,
            "metric": self.metric,
            "kind": self.kind,
            "limit": self.limit,
            "value": value,
            "within": within,
            "reason": self.reason,
        }


#: The shipped benchmark policy catalog.  Floors restate the asserts the
#: benchmarks themselves carry (a stale BENCH_perf.json can drift even
#: when the asserts would pass today); the overhead ceiling watches the
#: observability off-switch.
BENCH_POLICIES: Tuple[BenchPolicy, ...] = (
    BenchPolicy(
        "analyzer_fast_path", "speedup", "floor", 20.0,
        "closed-form measure() must beat the raw-sample reference",
    ),
    BenchPolicy(
        "memoized_experiment", "speedup", "floor", 5.0,
        "a cache-hit rerun must skip the simulation entirely",
    ),
    BenchPolicy(
        "parallel_sweep_fig6b", "speedup", "floor", 1.2,
        "the parallel sweep must amortize worker startup and beat serial",
    ),
    BenchPolicy(
        "tracer_overhead_fig2", "enabled_overhead_frac", "ceiling", 0.25,
        "observing a run must stay cheap enough to leave enabled",
    ),
    BenchPolicy(
        "check_fig2_statespace", "cold_wall_s", "ceiling", 5.0,
        "the exhaustive model check gates every commit and must stay interactive",
    ),
    BenchPolicy(
        "check_fig2_statespace", "speedup", "floor", 10.0,
        "a fingerprint-cached model check must skip the exploration",
    ),
    BenchPolicy(
        "check_budgets_statespace", "cold_wall_s", "ceiling", 5.0,
        "the priced budget analysis runs in CI on every commit and must stay interactive",
    ),
    BenchPolicy(
        "check_budgets_statespace", "speedup", "floor", 10.0,
        "a fingerprint-cached budget check must skip the probes and exploration",
    ),
    BenchPolicy(
        "check_shared_parse", "parse_speedup", "floor", 1.1,
        "one ModuleCache parse must feed every source-analysis pass",
    ),
    BenchPolicy(
        "macro_step_week", "speedup", "floor", 100.0,
        "cycle-compiled macro-stepping must keep week-long horizons interactive",
    ),
    BenchPolicy(
        "standby_exact_cycles", "wall_s", "ceiling", 0.045,
        "an exact standby cycle must stay cheap: context synthesis and rail propagation",
    ),
    BenchPolicy(
        "power_tree_batching", "baseline_evaluations", "ceiling", 80.0,
        "a flow segment must evaluate the power tree once, not per component change",
    ),
    BenchPolicy(
        "power_tree_batching", "odrips_mram_evaluations", "ceiling", 124.0,
        "a flow segment must evaluate the power tree once, not per component change",
    ),
    BenchPolicy(
        "mee_bulk_context_200kb", "speedup", "floor", 3.0,
        "the bulk MEE path must commit and verify each tree node once per transfer",
    ),
    BenchPolicy(
        "mee_bulk_context_200kb", "wall_s", "ceiling", 0.26,
        "a cold 200 KB context save and restore through the bulk MEE path must stay cheap",
    ),
    BenchPolicy(
        "mee_random_access", "wall_s", "ceiling", 0.6,
        "per-access MEE tree walks must stay cheap on the host",
    ),
    BenchPolicy(
        "mee_random_access", "device_calls_per_access", "ceiling", 8.5665,
        "a per-access tree walk must read each level's metadata in one device call",
    ),
    BenchPolicy(
        "mee_random_access", "charged_accesses_per_access", "ceiling", 20.1655,
        "a host-side speed-up of the per-access walks must not add modeled DRAM traffic",
    ),
    BenchPolicy(
        "mee_random_access", "mac_tags_per_access", "ceiling", 3.56,
        "a host-side speed-up of the per-access walks must not add MACs",
    ),
    BenchPolicy(
        "mee_random_access", "keystream_blocks_per_access", "ceiling", 2.278,
        "a host-side speed-up of the per-access path must not draw more keystream",
    ),
    BenchPolicy(
        "mee_region_setup", "speedup", "floor", 10.0,
        "a later region set-up must replay the sealed version-0 image, not re-seal it",
    ),
    BenchPolicy(
        "mee_bulk_repeat", "speedup", "floor", 1.2,
        "a repeated bulk transfer must replay its memoized cache schedule, not rebuild it",
    ),
    BenchPolicy(
        "mee_bulk_repeat", "schedules_built", "ceiling", 1.0,
        "the saves and restores of one range must share one cache-replay schedule",
    ),
    BenchPolicy(
        "explain_fig2_delta", "speedup", "floor", 1.5,
        "explaining a cached pair must reuse the memoized run profiles",
    ),
)


def _check_fields(
    fields: Mapping[str, Any], allowed: Tuple[str, ...], context: str
) -> None:
    unknown = sorted(set(fields) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown baseline field(s) {', '.join(unknown)} for {context}; "
            f"allowed: {', '.join(allowed)}"
        )


def golden_policies(
    overrides: Optional[Mapping[str, Mapping[str, Mapping[str, Any]]]] = None,
) -> Dict[str, Tuple[GoldenValue, ...]]:
    """Golden values per experiment, with baseline overrides applied.

    The base catalog is every registered driver's declaration; overrides
    replace individual fields of an existing golden or add a new golden
    key for an experiment.  Unknown fields or kinds raise
    :class:`~repro.errors.ConfigError`.
    """
    policies: Dict[str, Tuple[GoldenValue, ...]] = {
        name: spec.goldens for name, spec in EXPERIMENTS.items() if spec.goldens
    }
    for experiment, keys in (overrides or {}).items():
        base = {golden.key: golden for golden in policies.get(experiment, ())}
        for key, fields in keys.items():
            _check_fields(fields, _GOLDEN_FIELDS, f"golden {experiment}.{key}")
            current = base.get(key, GoldenValue(key=key, paper=0.0, tolerance=0.0))
            updated = replace(current, **dict(fields))
            if updated.kind not in GOLDEN_KINDS:
                raise ConfigError(
                    f"golden {experiment}.{key}: unknown kind {updated.kind!r}; "
                    f"allowed: {', '.join(GOLDEN_KINDS)}"
                )
            base[key] = updated
        policies[experiment] = tuple(base.values())
    return policies


def bench_policies(
    overrides: Optional[Mapping[str, Mapping[str, Mapping[str, Any]]]] = None,
) -> Tuple[BenchPolicy, ...]:
    """The benchmark policy catalog, with baseline overrides applied."""
    catalog = {(policy.bench, policy.metric): policy for policy in BENCH_POLICIES}
    for bench, metrics in (overrides or {}).items():
        for metric, fields in metrics.items():
            _check_fields(fields, _BENCH_FIELDS, f"bench {bench}.{metric}")
            current = catalog.get(
                (bench, metric),
                BenchPolicy(bench, metric, "floor", 0.0, "baseline-defined policy"),
            )
            updated = replace(current, **dict(fields))
            if updated.kind not in BENCH_KINDS:
                raise ConfigError(
                    f"bench {bench}.{metric}: unknown kind {updated.kind!r}; "
                    f"allowed: {', '.join(BENCH_KINDS)}"
                )
            catalog[(bench, metric)] = updated
    return tuple(catalog.values())
