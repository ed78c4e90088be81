"""The rendered SQL runs on the indexes the internal schema declares.

Timing-free pin for the planner: on a store big enough that a scan would
hurt, ``EXPLAIN QUERY PLAN`` of the SQL rendered for each of the seven
Table 2 queries reaches every ``v_Sightings`` and ``E`` access through an
index, and builds no automatic index for any step, on a mirror synced from
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


#: A plan step reading ``E`` or ``v_Sightings`` (aliases ``E_0``,
#: ``v_Sightings_1``, ...: the table, then the atom's number); older sqlite
#: spells it ``SEARCH TABLE E AS E_0 ...``.
_ACCESS = re.compile(r"^(SCAN|SEARCH) (?:TABLE \S+ AS )?(E|v_Sightings)_\d+ ")


@pytest.mark.parametrize("name", list(paper_queries()))
def test_every_v_and_e_access_is_indexed(store_and_mirror, name):
    store, mirror = store_and_mirror
    generated = generate_sql(store, paper_queries()[name])
    plan = mirror.explain(generated.sql, generated.params)
    accesses = [step for step in plan if _ACCESS.match(step)]
    atoms = generated.sql.count('"E" AS ') + generated.sql.count('"v_Sightings" AS ')
    assert atoms and len(accesses) == atoms, plan
    for step in accesses:
        assert step.startswith("SEARCH"), plan
        assert "USING INDEX" in step or "COVERING INDEX" in step, plan
    assert not [step for step in plan if "AUTOMATIC" in step], plan


def test_planner_statistics_cover_the_declared_indexes(store_and_mirror):
    _, mirror = store_and_mirror
    analyzed = {idx for (idx,) in mirror.execute("SELECT idx FROM sqlite_stat1")}
    assert {
        "idx_E_0", "idx_v_Sightings_0", "idx_v_Sightings_1",
        "idx_v_Sightings_2", "key_star_Sightings",
    } <= analyzed
