#!/usr/bin/env python3
"""One-shot reproduction report: all paper experiments, scaled down.

Runs a small version of every Sect. 6 experiment (Table 1, Figure 6,
Table 2), compares against the paper's published values, and writes a
markdown report to ``reproduction_report.md``. ``python -m repro overhead``
measures one Table 1 cell at any scale (the paper's n=10,000 included);
``docs/performance.md`` records the measured runs.

Run:  python examples/reproduce_paper.py [output.md]
"""

import sys
import time

from repro.bench import (
    FIGURE6_SERIES,
    TABLE1_DEPTH_DISTS,
    build_experiment_store,
    measure_overhead,
    paper_queries,
    run_query_suite,
)

N = 400
REPEATS = 2
USERS_LARGE = 40  # scaled from the paper's 100 to keep this script quick

PAPER_TABLE1 = {
    ("[.33,.33,.33]", 10, "zipf"): 31,
    ("[.33,.33,.33]", 10, "uniform"): 38,
    ("[.8,.19,.01]", 10, "zipf"): 27,
    ("[.8,.19,.01]", 10, "uniform"): 60,
    ("[.199,.8,.001]", 10, "zipf"): 7,
    ("[.199,.8,.001]", 10, "uniform"): 6,
}

PAPER_TABLE2_MS = {
    "q1,0": 105, "q1,1": 145, "q1,2": 146, "q1,3": 152, "q1,4": 144,
    "q2": 436, "q3": 4473,
}


def _held(check: bool) -> str:
    return "held" if check else "did NOT hold"


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "reproduction_report.md"
    started = time.time()
    lines = [
        "# Reproduction report — Believe It or Not (VLDB 2009)",
        "",
        f"Scaled-down run: n={N} annotations, {REPEATS} seeds "
        f"(paper: n=10,000, 10 seeds). Paper-scale cells: "
        "`python -m repro overhead`; measured runs: docs/performance.md.",
        "",
        "## Table 1 — relative overhead |R*|/n (m=10 columns vs paper)",
        "",
        "| depth dist | participation | measured | paper (n=10k) |",
        "|---|---|---|---|",
    ]
    print("Table 1 cells (m=10)...")
    for label, dist in TABLE1_DEPTH_DISTS.items():
        for participation in ("zipf", "uniform"):
            r = measure_overhead(N, 10, participation, dist,
                                 depth_label=label, repeats=REPEATS)
            paper = PAPER_TABLE1[(label, 10, participation)]
            lines.append(
                f"| {label} | {participation} | "
                f"{r.overhead_mean:.1f} | {paper} |"
            )

    lines += ["", "## Figure 6 — overhead vs n "
              f"(m={USERS_LARGE}, uniform)", "",
              "| n | " + " | ".join(FIGURE6_SERIES) + " |",
              "|---|" + "---|" * len(FIGURE6_SERIES)]
    print("Figure 6 sweep...")
    series: dict[str, list[float]] = {label: [] for label in FIGURE6_SERIES}
    for n in (25, 100, N):
        row = [str(n)]
        for label, dist in FIGURE6_SERIES.items():
            r = measure_overhead(n, USERS_LARGE, "uniform", dist,
                                 repeats=REPEATS)
            series[label].append(r.overhead_mean)
            row.append(f"{r.overhead_mean:.1f}")
        lines.append("| " + " | ".join(row) + " |")
    flat, skewed = series.values()
    lines += ["", "Paper: the flat series rises with n, the skewed one falls.",
              f"- flat series rises: {_held(flat[-1] > flat[0])}",
              f"- skewed series falls: {_held(skewed[-1] < skewed[0])}"]

    print("Table 2 queries...")
    store = build_experiment_store(n_annotations=N, n_users=10, seed=1)
    measurements = run_query_suite(
        store, paper_queries(max_depth=4), backend="engine", repeats=3
    )
    lines += ["", f"## Table 2 — queries (engine backend, |R*|={store.total_rows():,})",
              "", "| query | measured ms | rows | paper ms (n=10k, SQL Server) |",
              "|---|---|---|---|"]
    for m in measurements:
        lines.append(
            f"| {m.name} | {m.timing.mean_ms:.1f} | {m.result_size} "
            f"| {PAPER_TABLE2_MS[m.name]} |"
        )
    ms = {m.name: m.timing.mean_ms for m in measurements}
    content = [ms[f"q1,{d}"] for d in range(5)]
    lines += [
        "",
        "Shape checks (paper: content queries flat in depth; q2 slower than "
        "q1; q3 slowest):",
        f"- content queries within 6x of q1,0: "
        f"{_held(max(content) < 6 * content[0])}",
        f"- q2 slower than every q1,d: {_held(ms['q2'] > max(content))}",
        f"- q3 slowest: {_held(ms['q3'] == max(ms.values()))}",
        "",
        f"_Generated in {time.time() - started:.1f}s._",
    ]

    report = "\n".join(lines) + "\n"
    with open(out_path, "w") as sink:
        sink.write(report)
    print(f"\nwrote {out_path}:\n")
    print(report)


if __name__ == "__main__":
    main()
