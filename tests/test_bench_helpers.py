"""The benchmark-support library itself (harness, overhead, queries), and
the shapes of the paper's Table 1 / Fig. 6 it reproduces."""

import pytest

from repro.bench.harness import Timing, format_table, time_call
from repro.bench.overhead import (
    FIGURE6_SERIES,
    TABLE1_DEPTH_DISTS,
    figure6_sweep,
    measure_overhead,
    table1_grid,
    theoretic_bound,
)
from repro.bench.queries import (
    build_experiment_store,
    paper_queries,
    run_query_suite,
)


class TestHarness:
    def test_time_call(self):
        timing = time_call(lambda: sum(range(100)), repeats=3)
        assert isinstance(timing, Timing)
        assert timing.repeats == 3
        assert timing.mean_ms >= 0
        assert timing.last_result == 4950
        assert "ms" in str(timing)

    def test_format_table(self):
        text = format_table(
            ("name", "value"),
            [("a", 1234), ("bb", 0.5)],
            title="Title",
        )
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "name" in lines[1]
        assert "1,234" in text
        assert "0.500" in text  # sub-10 floats keep precision


class TestOverheadHelpers:
    def test_measure_overhead(self):
        r = measure_overhead(60, 4, "zipf", (0.6, 0.4), repeats=2)
        assert r.overhead_mean > 1
        assert r.n_annotations == 60 and r.participation == "zipf"

    def test_table1_grid_shape(self):
        grid = table1_grid(40, user_counts=(3,), repeats=1)
        # 3 depth distributions × 1 user count × 2 participation models.
        assert len(grid) == len(TABLE1_DEPTH_DISTS) * 2
        labels = {r.depth_label for r in grid}
        assert labels == set(TABLE1_DEPTH_DISTS)

    def test_figure6_sweep_shape(self):
        sweep = figure6_sweep([20, 40], n_users=4, repeats=1)
        assert set(sweep) == set(FIGURE6_SERIES)
        for series in sweep.values():
            assert [r.n_annotations for r in series] == [20, 40]

    def test_theoretic_bound(self):
        assert theoretic_bound(100, 2) == 10_000  # the paper's example


#: ``examples/reproduce_paper.py``'s scale (paper: n=10,000, m in {10, 100},
#: 10 seeds). The shapes count rows, not time, so they are deterministic.
SHAPE_N = 400
SHAPE_USERS = (10, 40)
SHAPE_SEEDS = 2


@pytest.fixture(scope="module")
def table1():
    grid = table1_grid(SHAPE_N, user_counts=SHAPE_USERS, repeats=SHAPE_SEEDS)
    return {
        (r.depth_label, r.n_users, r.participation): r.overhead_mean
        for r in grid
    }


@pytest.fixture(scope="module")
def figure6():
    sweep = figure6_sweep(
        [25, 100, SHAPE_N], n_users=SHAPE_USERS[-1], repeats=SHAPE_SEEDS
    )
    return [[r.overhead_mean for r in series] for series in sweep.values()]


class TestPaperShapes:
    """Table 1 / Fig. 6 (Sect. 6.1): the orderings the paper's numbers show."""

    def test_every_cell_costs_more_than_its_annotations_within_the_bound(
        self, table1
    ):
        for (label, m, _), overhead in table1.items():
            dist = TABLE1_DEPTH_DISTS[label]
            assert 1.0 < overhead < m ** 2 + len(dist) * m, (label, m)

    def test_more_users_cost_more(self, table1):
        small, large = SHAPE_USERS
        for label in TABLE1_DEPTH_DISTS:
            assert table1[(label, large, "uniform")] > table1[
                (label, small, "uniform")
            ], label

    def test_zipf_is_never_much_worse_than_uniform(self, table1):
        large = SHAPE_USERS[-1]
        for label in TABLE1_DEPTH_DISTS:
            assert table1[(label, large, "zipf")] <= 1.15 * table1[
                (label, large, "uniform")
            ], label

    def test_the_mostly_depth_one_row_is_the_cheapest(self, table1):
        *others, skewed = TABLE1_DEPTH_DISTS
        for m in SHAPE_USERS:
            for participation in ("zipf", "uniform"):
                for label in others:
                    assert table1[(skewed, m, participation)] < table1[
                        (label, m, participation)
                    ], (label, m, participation)

    def test_flat_uniform_many_users_is_the_most_expensive_cell(self, table1):
        flat = next(iter(TABLE1_DEPTH_DISTS))
        assert max(table1.values()) == table1[(flat, SHAPE_USERS[-1], "uniform")]

    def test_figure6_flat_rises_and_skewed_falls(self, figure6):
        flat, skewed = figure6
        assert min(flat + skewed) > 1.0
        assert flat[-1] > flat[0]
        assert skewed[-1] < skewed[0]
        # The two series diverge, and both stay below m^dmax (Sect. 5.4).
        assert flat[-1] > 2 * skewed[-1]
        assert max(flat + skewed) < theoretic_bound(SHAPE_USERS[-1], 2)


class TestQueryHelpers:
    def test_paper_queries_cover_table2(self):
        queries = paper_queries(max_depth=4)
        assert list(queries) == ["q1,0", "q1,1", "q1,2", "q1,3", "q1,4",
                                 "q2", "q3"]
        assert queries["q1,3"].subgoals[0].path == (1, 2, 1)

    def test_run_query_suite_backends_agree(self):
        store = build_experiment_store(n_annotations=80, n_users=4, seed=6)
        queries = paper_queries(max_depth=2)
        engine = run_query_suite(store, queries, backend="engine", repeats=1)
        lazy = run_query_suite(store, queries, backend="lazy", repeats=1)
        sqlite = run_query_suite(store, queries, backend="sqlite", repeats=1)
        for a, b, c in zip(engine, lazy, sqlite):
            assert a.result_size == b.result_size == c.result_size, a.name

    def test_table2_result_sizes(self):
        # Every query answers on the workload; the user query q3 returns no
        # more rows than the content query q1,0 (paper: 99 against 1,626).
        store = build_experiment_store(n_annotations=SHAPE_N, n_users=10, seed=1)
        sizes = {
            m.name: m.result_size
            for m in run_query_suite(store, paper_queries(max_depth=4),
                                     backend="engine", repeats=1)
        }
        assert all(sizes.values()), sizes
        assert sizes["q3"] <= sizes["q1,0"]

    def test_unknown_backend_rejected(self):
        store = build_experiment_store(n_annotations=20, n_users=3, seed=6)
        with pytest.raises(ValueError):
            run_query_suite(store, paper_queries(1), backend="voodoo")
