"""The energy-attribution ledger: which domain burned what, and when.

The power tree records a piecewise-constant power channel per rail
(``rail:<name>``) alongside the battery-side ``platform`` total, all at
the same event boundaries.  :class:`EnergyLedger` integrates those rail
channels over a measurement window — per rail, and per (span x rail)
cell for any set of tracer spans — so an observed run can answer the
paper's Fig. 2/3 style questions: *which domain burned what during which
flow step*.

Because the platform total is the sum of the rail inputs at every
recorded instant, the ledger's per-domain totals sum to the analyzer's
average power times the window (up to float associativity, well inside
1e-9 relative) — the cross-check ``tests/test_obs_ledger.py`` enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.errors import MeasurementError
from repro.measure.residency import integrate_joules
from repro.sim.trace import TraceRecorder
from repro.units import PICOSECONDS_PER_SECOND

if TYPE_CHECKING:
    from repro.obs.tracer import Span

#: Trace-channel prefix of the per-rail power channels.
RAIL_CHANNEL_PREFIX = "rail:"


@dataclass(frozen=True)
class LedgerCell:
    """Energy one domain burned during one span occurrence."""

    span: str
    span_start_ps: int
    span_end_ps: int
    domain: str
    energy_joules: float


@dataclass
class EnergyLedger:
    """Per-domain energy over a window, with optional span attribution."""

    start_ps: int
    end_ps: int
    #: Joules per domain (rail) over the whole window.
    domain_energy_j: Dict[str, float] = field(default_factory=dict)
    #: Per-span, per-domain attribution cells (clipped to the window).
    cells: List[LedgerCell] = field(default_factory=list)

    @property
    def window_ps(self) -> int:
        return self.end_ps - self.start_ps

    @property
    def window_s(self) -> float:
        return self.window_ps / PICOSECONDS_PER_SECOND

    @property
    def total_energy_j(self) -> float:
        """Whole-window battery-side energy: the sum over domains."""
        return sum(self.domain_energy_j.values())

    @property
    def average_power_w(self) -> float:
        return self.total_energy_j / self.window_s

    def domain_average_power_w(self, domain: str) -> float:
        """Average battery-side watts one domain drew over the window."""
        return self.domain_energy_j.get(domain, 0.0) / self.window_s

    def span_energy_j(self) -> Dict[str, float]:
        """Joules per span name, summed over occurrences and domains."""
        totals: Dict[str, float] = {}
        for cell in self.cells:
            totals[cell.span] = totals.get(cell.span, 0.0) + cell.energy_joules
        return totals

    def span_domain_energy_j(self) -> Dict[str, Dict[str, float]]:
        """Joules per (span name, domain), summed over occurrences."""
        table: Dict[str, Dict[str, float]] = {}
        for cell in self.cells:
            row = table.setdefault(cell.span, {})
            row[cell.domain] = row.get(cell.domain, 0.0) + cell.energy_joules
        return table

    # --- construction -----------------------------------------------------

    @classmethod
    def from_trace(
        cls,
        trace: TraceRecorder,
        start_ps: int,
        end_ps: int,
        spans: Iterable["Span"] = (),
    ) -> "EnergyLedger":
        """Integrate every rail channel of ``trace`` over the window.

        ``spans`` (typically the tracer's flow-step spans) are clipped to
        the window and attributed per domain; open spans are skipped.
        """
        if end_ps <= start_ps:
            raise MeasurementError("empty ledger window")
        domains = [
            channel
            for channel in trace.channels()
            if channel.startswith(RAIL_CHANNEL_PREFIX)
        ]
        if not domains:
            raise MeasurementError("trace has no rail channels to attribute")
        ledger = cls(start_ps=start_ps, end_ps=end_ps)
        for channel in domains:
            name = channel[len(RAIL_CHANNEL_PREFIX):]
            ledger.domain_energy_j[name] = integrate_joules(
                trace, channel, start_ps, end_ps
            )
        for span in spans:
            if span.end_ps is None:
                continue
            lo = max(span.start_ps, start_ps)
            hi = min(span.end_ps, end_ps)
            if hi <= lo:
                continue
            for channel in domains:
                name = channel[len(RAIL_CHANNEL_PREFIX):]
                ledger.cells.append(
                    LedgerCell(
                        span=span.name,
                        span_start_ps=span.start_ps,
                        span_end_ps=span.end_ps,
                        domain=name,
                        energy_joules=integrate_joules(trace, channel, lo, hi),
                    )
                )
        return ledger

    # --- rendering --------------------------------------------------------

    def domain_rows(self) -> List[Tuple[str, float, float]]:
        """``(domain, joules, average watts)`` rows, largest burner first."""
        rows = [
            (domain, joules, joules / self.window_s)
            for domain, joules in self.domain_energy_j.items()
        ]
        rows.sort(key=lambda row: -row[1])
        return rows

    def step_rows(self, limit: Optional[int] = None) -> List[Tuple[str, str, float]]:
        """``(span, domain, joules)`` rows, largest cells first.

        When ``limit`` truncates the table, the dropped tail is rolled
        into one explicit ``(+N more, X mJ)`` row instead of silently
        vanishing — the rendered ledger always sums to the window total.
        """
        table = self.span_domain_energy_j()
        rows = [
            (span, domain, joules)
            for span, per_domain in table.items()
            for domain, joules in per_domain.items()
        ]
        rows.sort(key=lambda row: -row[2])
        if limit is not None and len(rows) > limit:
            tail = rows[limit:]
            tail_joules = sum(joules for _span, _domain, joules in tail)
            rows = rows[:limit]
            rows.append(
                (f"(+{len(tail)} more, {tail_joules * 1e3:,.3f} mJ)", "", tail_joules)
            )
        return rows
