"""A commit pays for what it changes: the undo of an aborted commit.

The store journals each explicit statement a commit adds or discards; an
abort rebuilds from the current statements with that journal undone —
the same statements, users and answers as before the commit, though not
the same rows (worlds and tuple ids a deleted statement left behind are
not rebuilt). A commit that succeeds never lists the database's
statements.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.errors import TransactionAbortedError, UnknownUserError
from repro.query.naive import evaluate_naive
from repro.query.parser import parse_bcq
from repro.storage.store import BeliefStore
from tests.bdms.test_one_apply_path import INSERT, _row, statements

#: Names a user nobody registered: applying it raises mid-commit.
POISON = (INSERT, ("Zed", *_row("s0", "crow")))

QUERIES = (
    "q(k, sp) :- [] Sightings+(k, u, sp, d, l)",
    "q(k, sp) :- [1] Sightings+(k, u, sp, d, l)",
    "q(k, sp) :- [2] Sightings+(k, u, sp, d, l)",
    "q(k) :- [2, 1] Sightings+(k, u, sp, d, l), [2] Sightings-(k, u, sp, d, l)",
    "q(k, sp) :- [1, 2] Sightings+(k, u, sp, d, l)",
)


def _db() -> BeliefDBMS:
    db = BeliefDBMS(sightings_schema(), strict=False)
    db.add_user("Ann")
    db.add_user("Ben")
    return db


def _state(db: BeliefDBMS) -> tuple:
    store = db.store
    store.check_invariants()
    queries = [parse_bcq(text, db.schema) for text in QUERIES]
    return (
        sorted(map(str, store.explicit_statements())),
        db.users(),
        [evaluate_naive(store.explicit_db, q, users=store.users())
         for q in queries],
        [db.query(q) for q in queries],
    )


@given(
    st.lists(statements, max_size=10),
    st.lists(statements, max_size=10),
    st.data(),
)
def test_an_abort_anywhere_restores_the_pre_commit_store(
    before, staged, data
):
    db = _db()
    for sql, params in before:
        db.execute_sql(sql, params)
    expected = _state(db)
    at = data.draw(st.integers(0, len(staged)), label="abort at")
    staged = [*staged[:at], POISON, *staged[at:]]

    txn = db.begin_transaction()
    for sql, params in staged:
        txn.stage(db.prepare(sql), params)
    try:
        db.commit_transaction(txn)
    except TransactionAbortedError as exc:
        assert isinstance(exc.__cause__, UnknownUserError)
    else:
        raise AssertionError("the poisoned commit did not abort")

    assert _state(db) == expected


def test_a_commit_that_succeeds_never_lists_the_statements(monkeypatch):
    db = _db()
    for sid in ("s0", "s1", "s2"):
        db.insert(["Ann"], "Sightings", _row(sid, "crow"))
    calls = []
    listing = BeliefStore.explicit_statements

    def counted(store):
        calls.append(store)
        return listing(store)

    monkeypatch.setattr(BeliefStore, "explicit_statements", counted)
    txn = db.begin_transaction()
    txn.stage(db.prepare(INSERT), ("Ben", *_row("s0", "raven")))
    txn.stage(
        db.prepare("delete from BELIEF ? Sightings where sid = ?"), ("Ann", "s1")
    )
    assert db.commit_transaction(txn).rowcount == 2
    assert calls == []

    txn = db.begin_transaction()
    txn.stage(db.prepare(INSERT), POISON[1])
    try:
        db.commit_transaction(txn)
    except TransactionAbortedError:
        pass
    assert len(calls) == 1  # the abort lists them once, to rebuild
