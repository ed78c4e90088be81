"""The sqlite mirror is carried forward across MVCC epochs — and dropped
exactly where carrying it would be wrong.

The carry-forward rule and its three fall-back-to-full cases are stated in
``src/repro/storage/mvcc.py``; ``tests/relational/test_sqlite_backend.py``
covers the delta sync itself. Here: who holds the mirror when, and that
wholesale store replacement (restore, the aborted-commit rebuild) never
leaves a mirror of the discarded store to be advanced.
"""

from __future__ import annotations

import pytest

from repro.api import connect
from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.durability import DurabilityManager
from repro.errors import TransactionAbortedError
from tests.relational.mirror_helpers import MirrorLedger, assert_mirror_is_exact

ROW = ("s1", "Carol", "bald eagle", "6-14-08", "Lake Forest")
INSERT = "insert into Sightings values (?,?,?,?,?)"
QUERIES = (
    "select S.sid, S.species from Sightings as S",
    "select S.sid, S.species from BELIEF 'Carol' Sightings as S",
    "select S.sid from Sightings as S, BELIEF 'Bob' not Sightings as D "
    "where S.sid = D.sid and S.uid = D.uid and S.species = D.species "
    "and S.date = D.date and S.location = D.location",
    "select U.name, S.sid from Users as U, BELIEF U.uid Sightings as S",
)


def row(i: int) -> tuple:
    return (f"s{i}",) + ROW[1:]


def pair(**kwargs) -> tuple[BeliefDBMS, BeliefDBMS]:
    """The same content on the sqlite and the engine backend."""
    dbs = (
        BeliefDBMS(sightings_schema(), backend="sqlite", **kwargs),
        BeliefDBMS(sightings_schema(), backend="engine", **kwargs),
    )
    for db in dbs:
        db.add_user("Carol")
        db.add_user("Bob")
        db.insert([], "Sightings", ROW)
        db.insert(["Carol"], "Sightings", row(2))
        db.insert(["Bob"], "Sightings", ROW, sign="-")
    return dbs


def answers(db: BeliefDBMS) -> list[list[tuple]]:
    return [db.execute_sql(q).rows for q in QUERIES]


def select(db: BeliefDBMS, sql: str, version=None) -> list[tuple]:
    return db.execute_prepared(db.prepare(sql), version=version).rows


# ----------------------------------------------------------- carry-forward


def test_one_mirror_serves_every_epoch_of_a_read_after_write_loop(monkeypatch):
    ledger = MirrorLedger(monkeypatch)
    sqlite, engine = pair()
    for i in range(10, 30):
        for db in (sqlite, engine):
            db.insert(["Carol"], "Sightings", row(i))
        assert answers(sqlite) == answers(engine)
    assert len(ledger.opened) == 1
    stats = sqlite.snapshot_stats()["mvcc"]
    assert (stats["mirror_syncs_full"], stats["mirror_syncs_delta"]) == (1, 19)
    assert_mirror_is_exact(sqlite)


def test_a_pinned_version_keeps_its_mirror_and_its_answer(monkeypatch):
    ledger = MirrorLedger(monkeypatch)
    sqlite, _ = pair()
    old = sqlite.pin_version()
    try:
        frozen = select(sqlite, QUERIES[0], old)
        old_mirror = old.synced_mirror()
        sqlite.insert([], "Sightings", row(3))
        # The newer version cannot have the pinned one's mirror: full build.
        assert len(select(sqlite, QUERIES[0])) == len(frozen) + 1
        assert len(ledger.opened) == 2
        assert not sqlite.versions.has_carried_mirror()
        assert old.synced_mirror() is old_mirror
        assert select(sqlite, QUERIES[0], old) == frozen
    finally:
        sqlite.release_version(old)
    # Both versions retire; the newer mirror is the one carried on.
    sqlite.insert([], "Sightings", row(4))
    assert sqlite.versions.has_carried_mirror()
    assert ledger.open == {id(ledger.opened[1])}
    sqlite.execute_sql(QUERIES[0])
    assert len(ledger.opened) == 2
    assert_mirror_is_exact(sqlite)


def test_a_mirror_is_never_taken_backwards(monkeypatch):
    """A reader pinned at an old epoch that syncs late must not be handed
    the mirror of a newer epoch: rows deleted in between would be missing
    and no rowid arithmetic could tell."""
    MirrorLedger(monkeypatch)
    sqlite, _ = pair()
    old = sqlite.pin_version()  # pinned, not synced yet
    try:
        sqlite.delete(["Carol"], "Sightings", row(2))
        sqlite.execute_sql(QUERIES[1])  # the newer epoch builds a mirror...
        sqlite.add_user("Dave")  # ...and retires: it is carried now
        assert sqlite.versions.has_carried_mirror()
        rows = select(sqlite, QUERIES[1], old)
        assert ("s2", "bald eagle") in rows
        assert sqlite.versions.has_carried_mirror()  # left for the next epoch
    finally:
        sqlite.release_version(old)


def test_transaction_read_view_never_takes_the_shared_mirror(monkeypatch):
    ledger = MirrorLedger(monkeypatch)
    sqlite, engine = pair()
    conns = [connect(db) for db in (sqlite, engine)]
    assert answers(sqlite) == answers(engine)
    for db in (sqlite, engine):
        db.insert(["Carol"], "Sightings", row(5))  # retire: mirror carried
    shared = ledger.opened[0]
    assert sqlite.versions.has_carried_mirror()
    for conn in conns:
        conn.begin()
        conn.execute(INSERT, row(6))
        conn.execute("delete from BELIEF 'Carol' Sightings where sid = 's2'")
    in_txn = [[conn.execute(q).rows for q in QUERIES] for conn in conns]
    assert in_txn[0] == in_txn[1]
    assert ("s6", "bald eagle") in in_txn[0][0]
    # The private view built its own mirror; the shared one was not touched
    # and is still waiting for the next committed epoch.
    assert sqlite.versions.has_carried_mirror()
    assert len(ledger.opened) == 2 and id(shared) in ledger.open
    for conn in conns:
        conn.rollback()
    assert ledger.open == {id(shared)}  # the view's mirror died with it
    assert answers(sqlite) == answers(engine)
    assert len(ledger.opened) == 2
    assert_mirror_is_exact(sqlite)


# ------------------------------------------- wholesale store replacement


def test_query_after_restore_matches_engine_and_no_mirror_is_carried(tmp_path):
    sqlite, engine = (
        BeliefDBMS(
            sightings_schema(), backend=backend, strict=False,
            durability=DurabilityManager(str(tmp_path / backend)),
        )
        for backend in ("sqlite", "engine")
    )
    try:
        for db in (sqlite, engine):
            db.add_user("Carol")
            db.add_user("Bob")
            db.insert([], "Sightings", ROW)
            db.insert(["Carol"], "Sightings", row(2))
            db.delete(["Carol"], "Sightings", row(2))
            db.insert(["Bob"], "Sightings", ROW, sign="-")
        assert answers(sqlite) == answers(engine)
        for db in (sqlite, engine):
            db.insert(["Carol"], "Sightings", row(3))
            db.restore()
        # The rebuilt tables restart their rowids at 0 with other rows
        # under them: a mirror of the old store must not be advanced.
        assert not sqlite.versions.has_carried_mirror()
        assert answers(sqlite) == answers(engine)
        assert sqlite.snapshot_stats()["mvcc"]["mirror_syncs_full"] == 2
        assert_mirror_is_exact(sqlite)
    finally:
        sqlite.close()
        engine.close()


def test_query_after_aborted_commit_matches_engine_and_no_mirror_is_carried():
    sqlite, engine = pair(strict=True)
    assert answers(sqlite) == answers(engine)
    for db in (sqlite, engine):
        conn = connect(db)
        conn.begin()
        conn.execute(INSERT, row(7))
        conn.execute(INSERT, ROW)  # duplicate: rejected mid-commit
        with pytest.raises(TransactionAbortedError):
            conn.commit()
    assert not sqlite.versions.has_carried_mirror()
    assert answers(sqlite) == answers(engine)
    assert ("s7", "bald eagle") not in answers(sqlite)[0]
    assert_mirror_is_exact(sqlite)


def test_straggler_mirror_of_a_replaced_store_is_rebuilt_not_advanced(monkeypatch):
    """A reader pinned across a rollback rebuild hands its mirror in after
    ``invalidate()``; the lineage check rebuilds it from the empty base."""
    ledger = MirrorLedger(monkeypatch)
    sqlite, engine = pair(strict=True)
    straggler = sqlite.pin_version()
    try:
        before = select(sqlite, QUERIES[0], straggler)
        for db in (sqlite, engine):
            conn = connect(db)
            conn.begin()
            conn.execute(INSERT, row(8))
            conn.execute(INSERT, ROW)
            with pytest.raises(TransactionAbortedError):
                conn.commit()
        assert select(sqlite, QUERIES[0], straggler) == before
    finally:
        sqlite.release_version(straggler)
    for db in (sqlite, engine):
        db.insert(["Carol"], "Sightings", row(9))
    assert answers(sqlite) == answers(engine)
    assert_mirror_is_exact(sqlite)
    assert len(ledger.open) <= sqlite.versions.live_versions() + 1
