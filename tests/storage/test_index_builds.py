"""The first read of a new epoch builds no index, whatever the store size.

MVCC versions probe the live tables' indexes (``repro.relational.table``);
before, every version rebuilt each index it probed by a full pass. The
counters are the ones ``snapshot_stats()["engine_indexes"]`` and the
``beliefdb_engine_index_builds_total`` family report.
"""

from __future__ import annotations

import pytest

from repro.bdms.bdms import BeliefDBMS
from repro.bench.queries import Q3_LOCATION, paper_queries
from repro.core.schema import experiment_schema, sightings_schema
from repro.query.explain import explain
from repro.workload.generator import WorkloadConfig, populate_store

USERS = [f"user{i + 1}" for i in range(8)]
INSERT = "insert into BELIEF ? Sightings values (?,?,?,?,?)"
POINT = "select S.sid, S.species from BELIEF ? Sightings as S where S.sid = ?"
SCAN = "select S.sid, S.species from BELIEF ? Sightings as S"


def _row(i: int) -> list:
    user = USERS[i % len(USERS)]
    return [user, f"s{i}", user, f"species{i % 17}", "6-14-08", "Lake Forest"]


@pytest.mark.parametrize("annotations", [2048, 20480])
def test_read_after_write_rounds_build_no_index(annotations):
    db = BeliefDBMS(sightings_schema(), strict=False)
    for user in USERS:
        db.add_user(user)
    insert, point, scan = db.prepare(INSERT), db.prepare(POINT), db.prepare(SCAN)
    db.execute_batch(insert, [_row(i) for i in range(annotations)])
    per_user = annotations // len(USERS)

    def one_round(i: int) -> None:
        """Each read is the first of its epoch: a write precedes it."""
        n = annotations + 3 * i
        db.execute_prepared(insert, _row(n))
        assert db.execute_prepared(point, ["user1", "s0"]).rows == [("s0", "species0")]
        db.execute_prepared(insert, _row(n + 1))
        assert len(db.execute_prepared(scan, ["user2"]).rows) >= per_user
        db.execute_prepared(insert, _row(n + 2))
        assert db.believes(["user3"], "Sightings", _row(2)[1:])
        assert not db.believes(["user3"], "Sightings", _row(3)[1:])

    one_round(0)  # warm-up: statement cache, whatever the live tables lack
    before = db.snapshot_stats()["engine_indexes"]
    for i in range(1, 11):
        one_round(i)
    after = db.snapshot_stats()["engine_indexes"]
    assert (after["builds_shared"], after["builds_private"]) == (
        before["builds_shared"], before["builds_private"],
    )
    assert db.metrics.counter(
        "beliefdb_engine_index_builds_total", "", labels=("scope",)
    ).labels(scope="private").value == after["builds_private"]


def test_rounds_of_the_paper_queries_build_no_index_and_no_temporary():
    """Table 2's seven queries on the n=2000 store, each round the first
    reads of a new epoch. ``q3``'s variable user probes ``E`` by ``wid1``
    alone, which nothing declared covers: the first version to meet it
    indexes its own rows, the live table adopts the pattern at the next
    fork, and from then on every step of every plan reads a key or an
    index that is there — and the listing's ``T_i`` are unfolded, so
    nothing is materialized either."""
    db = BeliefDBMS(experiment_schema(), strict=False)
    populate_store(
        db.store,
        WorkloadConfig(
            n_annotations=2000, n_users=10, participation="zipf",
            depth_distribution=(0.5, 0.35, 0.15), seed=1,
        ),
    )
    queries = paper_queries()

    def one_round(i: int) -> None:
        assert db.insert((), "Sightings", (f"x{i}", 1, "crow", "6-14-08", Q3_LOCATION))
        for query in queries.values():
            db.query(query)

    sizes = {name: len(db.query(query)) for name, query in queries.items()}
    assert sizes["q1,0"] > 500 and sizes["q2"] and sizes["q3"]
    stats = db.snapshot_stats()["engine_indexes"]
    assert (stats["builds_shared"], stats["builds_private"]) == (0, 1)
    one_round(0)  # its first pin adopts E(wid1)
    before = db.snapshot_stats()["engine_indexes"]
    assert (before["builds_shared"], before["builds_private"]) == (1, 1)
    assert db.store.engine.table("E").has_index(("wid1",))
    for i in range(1, 4):
        one_round(i)
    assert db.snapshot_stats()["engine_indexes"] == before
    with db.read_view() as version:
        plans = {}
        for name, query in queries.items():
            report = explain(version.store, query, analyze=True)
            assert [rule.split("(")[0] for rule in report.rewritten_rules] == [
                "Q_result"
            ], name
            (plans[name],) = report.plan
            assert not any(
                word in report.render() for word in ("build(", "scan", "temporary")
            ), name
    assert "E[wid1] index(wid1)" in plans["q3"]
    assert "v_Sightings[wid, key] index(wid, key)" in plans["q3"]
    assert before == db.snapshot_stats()["engine_indexes"]  # EXPLAIN built nothing


def test_the_counters_survive_a_wholesale_store_replacement(tmp_path):
    """restore() builds new tables; what was counted is not forgotten."""
    from repro.durability import DurabilityManager

    db = BeliefDBMS(
        sightings_schema(), strict=False, durability=DurabilityManager(tmp_path)
    )
    try:
        db.add_user("user1")
        insert = db.prepare(INSERT)
        db.execute_batch(insert, [_row(8 * i) for i in range(40)])
        with db.read_view() as version:  # a pattern no declared index covers
            star = version.store.star_table("Sightings")
            assert len(list(star.match_named(species="species0"))) == 3
        before = db.snapshot_stats()["engine_indexes"]
        assert before["builds_private"] == 1
        db.restore()
        assert db.snapshot_stats()["engine_indexes"] == before
    finally:
        db.close()


def test_served_point_selects_hit_the_plan_cache_across_a_store_replacement(tmp_path):
    """A new key every call is the same rule shape: the statement runs the
    plan it holds, so nothing recompiles — nor looks the plan up — and the
    compile count (process-wide, like the cache) survives restore(), whose
    store has the same catalog."""
    from repro.durability import DurabilityManager

    db = BeliefDBMS(
        sightings_schema(), strict=False, durability=DurabilityManager(tmp_path)
    )
    try:
        db.add_user("user1")
        insert, point = db.prepare(INSERT), db.prepare(POINT)
        db.execute_batch(insert, [_row(8 * i) for i in range(40)])
        assert db.execute_prepared(point, ["user1", "s0"]).rows == [("s0", "species0")]
        before = db.snapshot_stats()["engine_plans"]
        assert set(before) == {"compiles", "hits", "size", "capacity"}
        assert 0 < before["size"] <= before["capacity"]
        for i in range(1, 40):
            assert len(db.execute_prepared(point, ["user1", f"s{8 * i}"]).rows) == 1
        db.restore()
        assert len(db.execute_prepared(point, ["user1", "s8"]).rows) == 1
        after = db.snapshot_stats()["engine_plans"]
        assert after["compiles"] == before["compiles"]
        assert after["hits"] == before["hits"]
        assert db.metrics.counter(
            "beliefdb_engine_rule_compiles_total", ""
        ).value == after["compiles"]
    finally:
        db.close()
