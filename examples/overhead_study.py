#!/usr/bin/env python3
"""A miniature of the paper's Sect. 6.1 storage study (Table 1 / Fig. 6).

Builds synthetic belief databases with the annotation generator, varying the
user count, participation skew, and annotation-depth distribution, and prints
the relative overhead |R*|/n together with the eager-vs-lazy tradeoff of
Sect. 6.3. ``python -m repro overhead`` measures one Table 1 cell at any
scale; this script is a quick, laptop-friendly look at the same phenomena.

Run:  python examples/overhead_study.py        (~20 s)
"""

from repro.bench import format_table, measure_overhead, theoretic_bound
from repro.workload import WorkloadConfig, build_store

N = 400
REPEATS = 2


def main() -> None:
    print("== Mini Table 1: relative overhead |R*|/n ==")
    print(f"   (n = {N} annotations per database, averaged over {REPEATS} seeds)\n")
    rows = []
    for label, dist in [
        ("[.33,.33,.33]", (1 / 3, 1 / 3, 1 / 3)),
        ("[.8,.19,.01]", (0.8, 0.19, 0.01)),
        ("[.199,.8,.001]", (0.199, 0.8, 0.001)),
    ]:
        for m in (10, 50):
            for participation in ("zipf", "uniform"):
                r = measure_overhead(
                    N, m, participation, dist, depth_label=label,
                    repeats=REPEATS,
                )
                rows.append(
                    (label, m, participation,
                     round(r.overhead_mean, 1), int(r.worlds_mean))
                )
    print(format_table(
        ("Pr[d=0,1,2]", "users", "participation", "|R*|/n", "worlds"), rows
    ))
    print(f"\n   theoretic worst case for m=50, dmax=2: "
          f"{theoretic_bound(50, 2):,} (Sect. 5.4)")

    print("\n== Mini Fig. 6: overhead vs. number of annotations ==")
    rows = []
    for n in (25, 100, 400):
        for label, dist in [
            ("flat  [.33,.33,.33]", (1 / 3, 1 / 3, 1 / 3)),
            ("skewed[.199,.8,.001]", (0.199, 0.8, 0.001)),
        ]:
            r = measure_overhead(n, 50, "uniform", dist, repeats=REPEATS)
            rows.append((n, label, round(r.overhead_mean, 1)))
    print(format_table(("n", "depth distribution", "|R*|/n"), rows))
    print("   (the flat series rises with n; the skewed one falls — Fig. 6)")

    print("\n== Eager vs. lazy materialization (Sect. 6.3) ==")
    config = WorkloadConfig(
        N, 50, depth_distribution=(1 / 3, 1 / 3, 1 / 3),
        participation="uniform", seed=0,
    )
    eager, _ = build_store(config, eager=True)
    lazy, _ = build_store(config, eager=False)
    rows = [
        ("eager (paper's default)", eager.total_rows(),
         round(eager.total_rows() / N, 1)),
        ("lazy (future work §6.3)", lazy.total_rows(),
         round(lazy.total_rows() / N, 1)),
    ]
    print(format_table(("mode", "|R*|", "|R*|/n"), rows))
    print("   lazy keeps the database near O(n + m); queries pay instead "
          "(see docs/performance.md)")


if __name__ == "__main__":
    main()
