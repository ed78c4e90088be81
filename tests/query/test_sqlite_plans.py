"""The generated SQL runs on the indexes the internal schema declares.

Timing-free pin for the planner satellite: on a store big enough that a
scan would hurt, ``EXPLAIN QUERY PLAN`` of the SQL generated for a deep
content query, the conflict query and the query for users reaches every
``v_Sightings`` and ``E`` access through an index, on a mirror synced from
an MVCC fork (which has built no hash index of its own) and analyzed.
"""

from __future__ import annotations

import re

import pytest

from repro.bench.queries import build_experiment_store, paper_queries
from repro.query.sql_gen import generate_sql
from repro.relational.sqlite_backend import SqliteMirror

N_ANNOTATIONS = 600


@pytest.fixture(scope="module")
def store_and_mirror():
    store = build_experiment_store(N_ANNOTATIONS, seed=3)
    with SqliteMirror() as mirror:
        mirror.sync(store.fork_snapshot().engine)
        yield store, mirror


#: A plan step reading ``E`` (aliases e0, e1, ...) or ``v_Sightings`` (v);
#: older sqlite spells it ``SEARCH TABLE E AS e0 ...``.
_ACCESS = re.compile(r"^(SCAN|SEARCH) (?:TABLE \S+ AS )?(e\d+|v)\b")


@pytest.mark.parametrize("name", ["q1,2", "q2", "q3"])
def test_every_v_and_e_access_is_indexed(store_and_mirror, name):
    store, mirror = store_and_mirror
    generated = generate_sql(store, paper_queries()[name])
    plan = mirror.explain(generated.sql, generated.params)
    accesses = [step for step in plan if _ACCESS.match(step)]
    assert len(accesses) >= 3, plan
    for step in accesses:
        assert step.startswith("SEARCH"), plan
        assert "USING INDEX" in step or "COVERING INDEX" in step, plan


def test_planner_statistics_cover_the_declared_indexes(store_and_mirror):
    _, mirror = store_and_mirror
    analyzed = {idx for (idx,) in mirror.execute("SELECT idx FROM sqlite_stat1")}
    assert {
        "idx_E_0", "idx_v_Sightings_0", "idx_v_Sightings_1",
        "idx_v_Sightings_2", "key_star_Sightings",
    } <= analyzed
