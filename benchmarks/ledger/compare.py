#!/usr/bin/env python3
"""Compare two ledgers: ``compare.py A.json B.json`` (A is the parent).

One row per (end-to-end metric x workload): both quoted values with the
range of per-rep samples each rests on (``run.py`` quotes the best rep
for times and rates, so that range is the better half of the reps), by
how much B is worse as a share of A's value (negative: better), the
bound, and a verdict.

* ``worse`` — B is worse than A by more than the bound. On simulated
  workloads the model outputs (waits, messages per op, failed ops) must
  repeat to the last digit, so there any worsening at all is ``worse``.
* ``unresolved`` — the range A's value rests on is itself wider than the
  bound and overlaps B's: the runs cannot tell a regression from noise,
  and saying "same" would be a claim the data does not make.
* ``better`` — B improves on A by more than that range and by more than
  the bound would have tolerated the other way.
* ``same`` — everything else.

Exit status is non-zero on any ``worse`` row or a higher
``failed_op_share``; bounds are only meaningful between ledgers of one
seed, which is checked.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Tuple

import catalog
from workloads import BY_NAME

METRICS = catalog.END_TO_END + (catalog.FAILED_OP_SHARE,)


def verdict(
    a: Dict[str, float], b: Dict[str, float], better: str, bound: float, exact: bool
) -> Tuple[str, float]:
    """Verdict for one row and B's change as a share of A's value,
    signed so that positive means worse.

    ``a`` and ``b`` hold the quoted ``value`` and the ``lo``/``hi`` range
    of the per-rep samples it rests on.
    """
    sign = 1.0 if better == "lower" else -1.0
    delta = sign * (b["value"] - a["value"])
    base = abs(a["value"])
    change = delta / base if base else (0.0 if delta == 0 else float("inf") * delta)
    if exact:
        if delta == 0:
            return "same", change
        return ("worse" if delta > 0 else "better"), change
    range_a = a["hi"] - a["lo"]
    overlap = a["lo"] <= b["hi"] and b["lo"] <= a["hi"]
    if base and range_a / base > bound and overlap:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if -delta > range_a and -change > bound:
        return "better", change
    return "same", change


def compare(ledger_a: Dict[str, Any], ledger_b: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    for name, cell_a in ledger_a["workloads"].items():
        cell_b = ledger_b["workloads"].get(name)
        if cell_b is None:
            continue
        simulated = BY_NAME[name].deterministic
        for metric in METRICS:
            a = cell_a["end_to_end"][metric.name]
            b = cell_b["end_to_end"][metric.name]
            exact = metric.exact_on_sim and simulated
            what, change = verdict(a, b, metric.better, metric.bound, exact)
            rows.append({
                "workload": name, "metric": metric.name, "unit": metric.unit,
                "a": a, "b": b, "change": change,
                "bound": 0.0 if exact else metric.bound, "verdict": what,
            })
    return rows


def _cell(row: Dict[str, float]) -> str:
    return f"{row['value']:.6g} [{row['lo']:.6g}, {row['hi']:.6g}]"


def render(rows: List[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<18} {'metric':<16} {'A value [rests on]':<34} "
        f"{'B value [rests on]':<34} {'worse by (of A)':>16} {'bound':>7}  verdict"
    ]
    for r in rows:
        lines.append(
            f"{r['workload']:<18} {r['metric']:<16} {_cell(r['a']):<34} "
            f"{_cell(r['b']):<34} {100 * r['change']:>+15.2f}% "
            f"{100 * r['bound']:>6.1f}%  {r['verdict']}"
        )
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        ledger_a = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        ledger_b = json.load(fh)
    if ledger_a["seed"] != ledger_b["seed"]:
        print(f"seeds differ ({ledger_a['seed']} vs {ledger_b['seed']}): "
              "bounds only hold between runs of one seed", file=sys.stderr)
        return 2
    rows = compare(ledger_a, ledger_b)
    print(f"A: {argv[0]} (commit {ledger_a['commit'][:12]})   "
          f"B: {argv[1]} (commit {ledger_b['commit'][:12]})   seed {ledger_a['seed']}")
    print(render(rows))
    bad = [r for r in rows if r["verdict"] == "worse" or (
        r["metric"] == "failed_op_share" and r["b"]["value"] > r["a"]["value"])]
    counts: Dict[str, int] = {}
    for r in rows:
        counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
    print("  ".join(f"{k}: {v}" for k, v in sorted(counts.items())))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
