"""Run each workload on ten seeds and print every end-to-end metric's spread.

    python3 bench_ledger/steadiness.py [--seconds S] [--seeds N] [--only a,b]

The spread is the distance between the first and third quartile of the ten
values, as a share of their median — the rule a benchmark is accepted by.
A metric belongs in the gated set only while its spread stays under a third
of its bound; one that does not is demoted to a per-layer metric, never
given a wider bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(LEDGER_DIR))

import metrics  # noqa: E402
import stats  # noqa: E402
from run import WORKLOADS, default_seconds  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=default_seconds())
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--only", default="")
    args = parser.parse_args()
    bounds = {name: bound for name, _, _, bound in metrics.END_TO_END}
    worst = 0.0
    for workload in (args.only.split(",") if args.only else WORKLOADS):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(LEDGER_DIR / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, text=True,
            )
            if proc.returncode != 0:
                print(proc.stdout)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {workload}")
        for name, series in values.items():
            spread = stats.spread(series)
            share = spread / bounds[name]
            worst = max(worst, share if name != "setup_s" else 0.0)
            print(f"  {name:20s} median={statistics.median(series):<12.6g} "
                  f"spread={spread:.3f} bound={bounds[name]:.2f} "
                  f"({share:.0%} of bound){'  <-- over a third' if share > 1 / 3 else ''}")
    print(f"worst gated spread: {worst:.0%} of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
