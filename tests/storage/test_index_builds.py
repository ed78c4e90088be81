"""The first read of a new epoch builds no index, whatever the store size.

MVCC versions probe the live tables' indexes (``repro.relational.table``);
before, every version rebuilt each index it probed by a full pass. The
counters are the ones ``snapshot_stats()["engine_indexes"]`` and the
``beliefdb_engine_index_builds_total`` family report.
"""

from __future__ import annotations

import pytest

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema

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
    """A new key every call is the same rule shape: nothing recompiles, and
    the compile count (process-wide, like the cache) survives restore()."""
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
        assert after["hits"] >= before["hits"] + 2 * 40  # T0 and the final rule
        assert db.metrics.counter(
            "beliefdb_engine_rule_compiles_total", ""
        ).value == after["compiles"]
    finally:
        db.close()
