"""Storage-overhead experiments: Table 1 and Figure 6 (Sect. 6.1).

Both experiments measure the *relative overhead* ``|R*| / n`` — the number of
tuples in the internal representation per belief annotation — as a function of
the user count ``m``, the user-participation distribution, and the depth
distribution ``Pr[k = x]`` of the annotations.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.workload.generator import WorkloadConfig, build_store

#: The three depth distributions of Table 1 (Pr[d = 0], Pr[d = 1], Pr[d = 2]).
TABLE1_DEPTH_DISTS: dict[str, tuple[float, float, float]] = {
    "[.33,.33,.33]": (1 / 3, 1 / 3, 1 / 3),
    "[.8,.19,.01]": (0.8, 0.19, 0.01),
    "[.199,.8,.001]": (0.199, 0.8, 0.001),
}

#: The two series of Figure 6 (100 users, uniform participation).
FIGURE6_SERIES: dict[str, tuple[float, float, float]] = {
    "uniform-depth [.33,.33,.33]": (1 / 3, 1 / 3, 1 / 3),
    "skewed-depth [.199,.8,.001]": (0.199, 0.8, 0.001),
}


@dataclass(frozen=True)
class OverheadResult:
    """One measured cell: mean/stdev of ``|R*|/n`` over several seeds."""

    n_annotations: int
    n_users: int
    participation: str
    depth_label: str
    overhead_mean: float
    overhead_stdev: float
    size_mean: float
    worlds_mean: float


def measure_overhead(
    n_annotations: int,
    n_users: int,
    participation: str,
    depth_distribution: Sequence[float],
    depth_label: str = "",
    repeats: int = 3,
    eager: bool = True,
    seed_base: int = 0,
) -> OverheadResult:
    """Average ``|R*|/n`` over ``repeats`` generated databases.

    The paper averages each Table 1 value over 10 databases with the same
    parameters.
    """
    overheads: list[float] = []
    sizes: list[float] = []
    worlds: list[float] = []
    for i in range(max(1, repeats)):
        config = WorkloadConfig(
            n_annotations=n_annotations,
            n_users=n_users,
            depth_distribution=tuple(depth_distribution),
            participation=participation,
            seed=seed_base + i,
        )
        store, stats = build_store(config, eager=eager)
        assert stats.accepted == n_annotations
        overheads.append(store.total_rows() / n_annotations)
        sizes.append(float(store.total_rows()))
        worlds.append(float(store.world_count()))
    return OverheadResult(
        n_annotations=n_annotations,
        n_users=n_users,
        participation=participation,
        depth_label=depth_label or str(tuple(depth_distribution)),
        overhead_mean=statistics.mean(overheads),
        overhead_stdev=statistics.stdev(overheads) if len(overheads) > 1 else 0.0,
        size_mean=statistics.mean(sizes),
        worlds_mean=statistics.mean(worlds),
    )


def table1_grid(
    n_annotations: int,
    user_counts: Iterable[int] = (10, 100),
    repeats: int = 3,
) -> list[OverheadResult]:
    """The full Table 1 grid: {m} × {Zipf, uniform} × three depth skews."""
    results: list[OverheadResult] = []
    for depth_label, dist in TABLE1_DEPTH_DISTS.items():
        for m in user_counts:
            for participation in ("zipf", "uniform"):
                results.append(
                    measure_overhead(
                        n_annotations,
                        m,
                        participation,
                        dist,
                        depth_label=depth_label,
                        repeats=repeats,
                    )
                )
    return results


def figure6_sweep(
    ns: Sequence[int],
    n_users: int = 100,
    repeats: int = 3,
) -> dict[str, list[OverheadResult]]:
    """Figure 6: overhead vs. n for the two depth-skew series."""
    out: dict[str, list[OverheadResult]] = {}
    for label, dist in FIGURE6_SERIES.items():
        out[label] = [
            measure_overhead(
                n, n_users, "uniform", dist, depth_label=label, repeats=repeats
            )
            for n in ns
        ]
    return out


def theoretic_bound(n_users: int, max_depth: int) -> int:
    """The paper's worst-case bound ``O(m^dmax)`` on the relative overhead."""
    return n_users ** max_depth
