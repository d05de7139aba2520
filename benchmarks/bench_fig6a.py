"""Fig. 6(a): platform average power and energy break-even point for the
baseline and the three power-reduction techniques plus ODRIPS.

Paper: savings of 6 % (WAKE-UP-OFF), 13 % (AON-IO-GATE), 8 %
(CTX-SGX-DRAM), 22 % (ODRIPS); break-even points 6.6 / 6.3 / 7.4 /
6.5 ms.
"""

from repro.analysis.report import format_table
from repro.core.experiments import fig6a_techniques

from _bench import run_once


def test_fig6a_average_power_savings(benchmark, emit):
    result = run_once(benchmark, fig6a_techniques, cycles=2)

    rows = [["Baseline (DRIPS)", f"{result.baseline_mw:.1f} mW", "-", "-", "-"]]
    for row in result.rows:
        rows.append(
            [
                row.label,
                f"{row.average_power_mw:.1f} mW",
                f"{row.saving:.1%}",
                f"{row.paper_saving:.0%}",
                f"{row.paper_break_even_ms:.1f} ms",
            ]
        )
    emit(format_table(
        ["configuration", "avg power", "saving", "paper saving", "paper break-even"],
        rows,
        title="Fig. 6(a) - technique average-power savings",
    ))

    for row in result.rows:
        assert abs(row.saving - row.paper_saving) < 0.015, row.label


def test_fig6a_break_even_points(benchmark, emit):
    """The blue line of Fig. 6(a): a two-point break-even fit per bar."""
    result = run_once(benchmark, fig6a_techniques, cycles=3, with_break_even=True)

    rows = [
        [row.label, f"{row.break_even_ms:.1f} ms", f"{row.paper_break_even_ms:.1f} ms"]
        for row in result.rows
    ]
    emit(format_table(
        ["configuration", "measured break-even", "paper break-even"],
        rows,
        title="Fig. 6(a) - DRIPS residency break-even points",
    ))

    for row in result.rows:
        assert row.break_even_ms is not None
        # same millisecond ballpark as the silicon measurement
        assert abs(row.break_even_ms - row.paper_break_even_ms) < 2.0, row.label
