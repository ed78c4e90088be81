"""Compare two ledger result files, metric by metric and workload by workload.

    python3 bench_ledger/compare.py A.json B.json

For every end-to-end metric on every workload prints both medians, how much
worse B is than A (as a share of A's median, in the metric's own "better"
direction), the metric's bound, and a verdict:

* ``worse``      B's median is worse than A's by more than the bound;
* ``unresolved`` the run-to-run spread of either file is wider than the
  bound, so the runs cannot tell — never reported as "unchanged";
* ``ok``         neither.

Exit code 1 when any row is ``worse``, 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from typing import Any


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (negative: better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def verdict(a: dict[str, Any], b: dict[str, Any]) -> tuple[str, float, float]:
    """``(verdict, worsening, spread)`` of one metric on one workload."""
    bound = a["bound"]
    delta = worsening(a["median"], b["median"], a["better"])
    spread = max(a["spread"], b["spread"])
    if spread > bound:
        return "unresolved", delta, spread
    if delta > bound:
        return "worse", delta, spread
    return "ok", delta, spread


def compare(first: dict[str, Any], second: dict[str, Any]) -> list[dict[str, Any]]:
    rows = []
    for workload, a_entry in first["workloads"].items():
        b_entry = second["workloads"].get(workload)
        if b_entry is None:
            continue
        for name, a in a_entry["end_to_end"].items():
            b = b_entry["end_to_end"].get(name)
            if b is None:
                continue
            outcome, delta, spread = verdict(a, b)
            rows.append({
                "workload": workload, "metric": name, "unit": a["unit"],
                "a": a["median"], "b": b["median"], "worsening": delta,
                "bound": a["bound"], "spread": spread, "verdict": outcome,
            })
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        rows = compare(json.load(fa), json.load(fb))
    print(f"{'workload':18s} {'metric':20s} {'A median':>12s} {'B median':>12s} "
          f"{'B worse by':>10s} {'bound':>6s} {'spread':>7s}  verdict")
    for row in rows:
        print(f"{row['workload']:18s} {row['metric']:20s} {row['a']:>12.5g} "
              f"{row['b']:>12.5g} {row['worsening']:>+10.1%} {row['bound']:>6.0%} "
              f"{row['spread']:>7.1%}  {row['verdict']}")
    counts = {v: sum(r["verdict"] == v for r in rows) for v in ("ok", "worse", "unresolved")}
    print(f"{counts['ok']} ok, {counts['worse']} worse, {counts['unresolved']} unresolved")
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
