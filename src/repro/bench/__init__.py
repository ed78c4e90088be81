"""Benchmark support for regenerating the paper's tables and figures."""

from repro.bench.harness import (
    Timing,
    format_table,
    time_call,
)
from repro.bench.overhead import (
    FIGURE6_SERIES,
    TABLE1_DEPTH_DISTS,
    OverheadResult,
    figure6_sweep,
    measure_overhead,
    table1_grid,
    theoretic_bound,
)
from repro.bench.queries import (
    Q3_LOCATION,
    QueryMeasurement,
    build_experiment_store,
    conflict_query,
    content_query,
    paper_queries,
    run_query_suite,
    user_query,
)

__all__ = [
    "FIGURE6_SERIES",
    "OverheadResult",
    "Q3_LOCATION",
    "QueryMeasurement",
    "TABLE1_DEPTH_DISTS",
    "Timing",
    "build_experiment_store",
    "conflict_query",
    "content_query",
    "figure6_sweep",
    "format_table",
    "measure_overhead",
    "paper_queries",
    "run_query_suite",
    "table1_grid",
    "theoretic_bound",
    "time_call",
]
