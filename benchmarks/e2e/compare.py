"""Apply the pair rule to two sets of end-to-end benchmark runs.

    python3 benchmarks/e2e/compare.py PARENT.json CHANGE.json

Each file is what ``run.py --json FILE`` appends to, one run per
invocation.  Measure the two commits alternately with the same seed
sequence (parent, change, change, parent, ...), so the i-th run of each
file forms a pair; at least ten pairs are needed.  For every end-to-end
metric of ``BENCHMARK.json`` and every workload the verdict is one of:

* ``regression`` - the change's median is worse than the parent's by more
  than the metric's bound (for ``setup_s``, by more than the bound or
  0.05 s, whichever is larger);
* ``gain`` - the change wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than the parent's IQR;
* ``unresolved`` - the parent's own spread (IQR / median) exceeds the
  bound, unless every change run beats every parent run;
* ``same`` - none of the above.

Two correctness rows per workload have a bound of zero: ``failed_frac``
(failed / attempted operations) is a regression if the change's is higher,
and ``paper_err_max`` (context-save-restore) is a regression if it changes at
all, since the simulator is deterministic.  Exits 1 on any regression,
2 when there are too few pairs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]

#: Alternating parent/change pairs the rule needs.
MIN_PAIRS = 10
#: Absolute worsening (in the metric's unit) a median may show regardless
#: of a smaller relative bound.
ABSOLUTE_SLACK = {"setup_s": 0.05}

ROW = "{:<18} {:<13} {:>11} {:>11} {:>8} {:>7} {:>6} {:>7}  {}"


def load_runs(path: str) -> List[Dict]:
    return [run for run in json.loads(Path(path).read_text())["runs"] if not run["trace"]]


def verdict(parent: List[float], change: List[float], bound: float, lower: bool) -> Dict:
    def better(a: float, b: float) -> bool:
        return a < b if lower else a > b

    pairs = list(zip(parent, change))
    q1, median_p, q3 = statistics.quantiles(parent, n=4)
    median_c = statistics.median(change)
    spread = (q3 - q1) / median_p
    wins = sum(1 for p, c in pairs if better(c, p))
    worse_by = (median_c - median_p if lower else median_p - median_c) / median_p
    every_run_better = all(better(c, p) for c in change for p in parent)
    if spread > bound and not every_run_better:
        result = "unresolved"
    elif worse_by > bound:
        result = "regression"
    elif (wins >= 0.9 * len(pairs) and abs(median_c - median_p) > q3 - q1
          and better(median_c, median_p)):
        result = "gain"
    else:
        result = "same"
    return {
        "parent": median_p, "change": median_c, "delta": median_c / median_p - 1.0,
        "spread": spread, "wins": wins, "pairs": len(pairs), "verdict": result,
    }


def failed_frac(runs: List[Dict], name: str) -> float:
    results = [run["results"][name] for run in runs]
    return sum(r["failed"] for r in results) / max(1, sum(r["attempted"] for r in results))


def paper_err(runs: List[Dict], name: str) -> str:
    """The distinct ``paper_err_max`` values of ``runs``, every digit ('' if none)."""
    values = {run["results"][name].get("paper_err_max") for run in runs} - {None}
    return ",".join(repr(value) for value in sorted(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    count = min(len(parent_runs), len(change_runs))
    if count < MIN_PAIRS:
        print(f"error: {count} pair(s); the pair rule needs at least {MIN_PAIRS}",
              file=sys.stderr)
        return 2
    parent_runs, change_runs = parent_runs[:count], change_runs[:count]
    workloads = [
        name for name in parent_runs[0]["results"]
        if all(name in run["results"] for run in parent_runs + change_runs)
    ]
    regressions = 0
    print(ROW.format("workload", "metric", "parent", "change", "delta", "spread", "bound",
                     "wins", "verdict"))
    for name in workloads:
        for metric in declared:
            key = metric["name"]
            parent = [run["results"][name]["metrics"][key] for run in parent_runs]
            change = [run["results"][name]["metrics"][key] for run in change_runs]
            bound = max(metric["bound"],
                        ABSOLUTE_SLACK.get(key, 0.0) / statistics.median(parent))
            row = verdict(parent, change, bound, metric["better"] == "lower")
            regressions += row["verdict"] == "regression"
            print(ROW.format(
                name, key, f"{row['parent']:.5g}", f"{row['change']:.5g}",
                f"{row['delta']:+.2%}", f"{row['spread']:.2%}", f"{bound:.0%}",
                f"{row['wins']}/{row['pairs']}", row["verdict"],
            ))
        frac_p, frac_c = failed_frac(parent_runs, name), failed_frac(change_runs, name)
        worse = frac_c > frac_p
        regressions += worse
        print(ROW.format(name, "failed_frac", f"{frac_p:.3g}", f"{frac_c:.3g}", "", "", "+0",
                         "", "regression" if worse else "same"))
        err_p, err_c = paper_err(parent_runs, name), paper_err(change_runs, name)
        if err_p or err_c:
            moved = err_p != err_c
            regressions += moved
            print(ROW.format(name, "paper_err_max", err_p, err_c, "", "", "=", "",
                             "regression" if moved else "same"))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
