"""Regression guard for the lazy-resync contract of the sqlite backend.

``BeliefDBMS(backend="sqlite")`` mirrors the internal tables into sqlite
per MVCC *version*: the first sqlite query against a pinned version pays
one sync, and every later query at the same epoch reuses that mirror
untouched. The sync advances the mirror the previous version handed on by
the rows that changed since. These tests pin that contract: a query issued
right after an insert/delete/update/add_user must see the new state (the
write bumped the epoch, so a fresh version serves it), a version's mirror
must never be synced again while the epoch is unchanged, and the one sync
a new epoch pays touches only the rows the writes in between changed.
"""

from __future__ import annotations

import pytest

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.errors import RejectedUpdateError

S1 = ("s1", "Carol", "bald eagle", "6-14-08", "Lake Forest")
S2 = ("s2", "Alice", "crow", "6-14-08", "Lake Placid")

Q_CAROL = "select S.sid, S.species from BELIEF 'Carol' Sightings as S"


@pytest.fixture
def db():
    db = BeliefDBMS(sightings_schema(), backend="sqlite")
    db.add_user("Carol")
    db.add_user("Bob")
    return db


def test_query_after_insert_sees_new_tuple(db):
    assert db.execute_sql(Q_CAROL).rows == []
    db.insert(["Carol"], "Sightings", S1)
    assert db.execute_sql(Q_CAROL).rows == [("s1", "bald eagle")]


def test_query_after_delete_stops_seeing_tuple(db):
    db.insert(["Carol"], "Sightings", S1)
    assert db.execute_sql(Q_CAROL).rows == [("s1", "bald eagle")]
    db.delete(["Carol"], "Sightings", S1)
    assert db.execute_sql(Q_CAROL).rows == []


def test_query_after_beliefsql_insert_and_delete(db):
    db.execute_sql("insert into BELIEF 'Carol' Sightings values "
               "('s1','Carol','bald eagle','6-14-08','Lake Forest')")
    assert db.execute_sql(Q_CAROL).rows == [("s1", "bald eagle")]
    count = db.execute_sql("delete from BELIEF 'Carol' Sightings "
                       "where sid = 's1'").rowcount
    assert count == 1
    assert db.execute_sql(Q_CAROL).rows == []


def test_query_after_update_sees_new_values(db):
    db.insert(["Carol"], "Sightings", S1)
    count = db.execute_sql("update BELIEF 'Carol' Sightings "
                       "set species = 'fish eagle' where sid = 's1'").rowcount
    assert count == 1
    assert db.execute_sql(Q_CAROL).rows == [("s1", "fish eagle")]


def test_query_after_add_user_sees_user_catalog(db):
    rows = db.execute_sql("select U.name from Users as U").rows
    db.add_user("Dave")
    rows_after = db.execute_sql("select U.name from Users as U").rows
    assert len(rows_after) == len(rows) + 1
    assert ("Dave",) in rows_after


def test_interleaved_updates_and_queries_never_stale(db):
    """Each write is immediately visible to the very next query."""
    for k in range(8):
        values = (f"s{k}", "Carol", "crow", "6-14-08", "Union Bay")
        db.insert(["Carol"], "Sightings", values)
        rows = db.execute_sql("select S.sid from BELIEF 'Carol' Sightings as S").rows
        assert (f"s{k}",) in rows
        assert len(rows) == k + 1


def _record_syncs(mirror) -> list:
    """Wrap ``mirror.sync`` so every call's report lands in the list."""
    reports = []
    original = mirror.sync

    def recording_sync(source):
        reports.append(original(source))
        return reports[-1]

    mirror.sync = recording_sync
    return reports


def test_mirror_not_resynced_within_a_version(db):
    db.insert(["Carol"], "Sightings", S1)
    db.execute_sql(Q_CAROL)  # syncs the current version's mirror
    with db.read_view() as version:
        mirror = version.synced_mirror()
        reports = _record_syncs(mirror)
        db.execute_sql(Q_CAROL)
        assert version.synced_mirror() is mirror
        assert reports == []  # same epoch: not synced again
    db.insert(["Bob"], "Sightings", S2)
    db.execute_sql(Q_CAROL)
    db.execute_sql(Q_CAROL)
    # The write bumped the epoch: the retired version handed its mirror on
    # and the new version advanced it — once, not per query.
    assert [report.kind for report in reports] == ["delta"]
    with db.read_view() as version:
        assert version.synced_mirror() is mirror


def test_delta_sync_touches_only_the_changed_tables_rows(db):
    db.insert(["Carol"], "Sightings", S1)
    db.execute_sql(Q_CAROL)
    before = db.snapshot_stats()["mvcc"]
    assert (before["mirror_syncs_full"], before["mirror_syncs_delta"]) == (1, 0)
    with db.read_view() as version:
        reports = _record_syncs(version.synced_mirror())

    # A second tuple in a world that exists: no new world, user or edge.
    db.insert(["Carol"], "Sightings", S2)
    db.execute_sql(Q_CAROL)
    assert set(reports[-1].changed) == {"star_Sightings", "v_Sightings"}
    # One star row; one V row per world that sees Carol's belief.
    assert reports[-1].changed["star_Sightings"] == 1
    rows_after_insert = reports[-1].rows

    # Several writes between two reads are one delta (skipped epochs).
    db.delete(["Carol"], "Sightings", S2)
    db.add_user("Dave")
    db.execute_sql(Q_CAROL)
    assert reports[-1].kind == "delta"
    assert "star_Sightings" not in reports[-1].changed  # stars are append-only
    assert {"U", "E", "v_Sightings"} <= set(reports[-1].changed)

    rows_after_mixed = reports[-1].rows

    # A bumped epoch with nothing changed (a rejected duplicate) is an
    # empty delta.
    with pytest.raises(RejectedUpdateError):
        db.insert(["Carol"], "Sightings", S1)
    db.execute_sql(Q_CAROL)
    assert reports[-1].changed == {}
    after = db.snapshot_stats()["mvcc"]
    assert (after["mirror_syncs_full"], after["mirror_syncs_delta"]) == (1, 3)
    assert after["mirror_delta_rows"] == rows_after_insert + rows_after_mixed


def test_queries_at_one_epoch_share_one_mirror(db):
    db.insert(["Carol"], "Sightings", S1)
    db.execute_sql(Q_CAROL)
    with db.read_view() as v1, db.read_view() as v2:
        assert v1 is v2  # same epoch → same cached version
        assert v1.synced_mirror() is v2.synced_mirror()


def test_sqlite_results_match_engine_backend(db):
    engine = BeliefDBMS(sightings_schema())
    engine.add_user("Carol")
    engine.add_user("Bob")
    for target in (db, engine):
        target.insert(["Carol"], "Sightings", S1)
        target.insert(["Bob"], "Sightings", S2)
        target.insert(["Bob"], "Sightings", S1, sign="-")
    queries = [
        Q_CAROL,
        "select S.sid, S.species from BELIEF 'Bob' Sightings as S",
        "select U.name, S.sid from Users as U, BELIEF U.uid Sightings as S",
    ]
    for q in queries:
        assert db.execute_sql(q).rows == engine.execute_sql(q).rows, q
