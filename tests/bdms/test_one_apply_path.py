"""One apply path: every DML route reaches a store through
``dml.apply_compiled``, so the routes cannot disagree.

The same statement sequence is applied four ways — autocommit, batched,
as one committed transaction, and as a transaction's read view — plus a
fifth, ``BeliefDBMS.insert`` / ``delete`` for the shapes they write, and
must leave identical stores; each route advances the version epoch by
exactly one per statement, call, batch or commit; and strict mode's
rejection is one error, whichever entry point meets it.
"""

from __future__ import annotations

import itertools
import pathlib
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.bdms.bdms import BeliefDBMS
from repro.core.database import BeliefDatabase
from repro.core.schema import sightings_schema
from repro.errors import (
    ParameterBindingError,
    RejectedUpdateError,
    SchemaError,
    TransactionAbortedError,
    UnknownUserError,
)

INSERT = "insert into BELIEF ? Sightings values (?,?,?,?,?)"
DISPUTE = "insert into BELIEF ? not Sightings values (?,?,?,?,?)"
PLAIN = "insert into Sightings values (?,?,?,?,?)"
DELETE = "delete from BELIEF ? Sightings where sid = ?"
VALUES_DELETE = "delete from BELIEF ? Sightings values (?,?,?,?,?)"
UPDATE = "update BELIEF ? Sightings set species = ? where sid = ?"

_users = st.sampled_from(["Ann", "Ben"])
_sids = st.sampled_from(["s0", "s1", "s2"])
_species = st.sampled_from(["crow", "raven"])


def _row(sid: str, species: str) -> tuple:
    return (sid, "u", species, "d", "l")


statements = st.one_of(
    st.tuples(st.just(INSERT), st.tuples(_users, _sids, _species).map(
        lambda a: (a[0], *_row(a[1], a[2])))),
    st.tuples(st.just(DISPUTE), st.tuples(_users, _sids, _species).map(
        lambda a: (a[0], *_row(a[1], a[2])))),
    st.tuples(st.just(PLAIN), st.tuples(_sids, _species).map(
        lambda a: _row(*a))),
    st.tuples(st.just(DELETE), st.tuples(_users, _sids)),
    st.tuples(st.just(VALUES_DELETE), st.tuples(_users, _sids, _species).map(
        lambda a: (a[0], *_row(a[1], a[2])))),
    st.tuples(st.just(UPDATE), st.tuples(_users, _species, _sids)),
)


def _db(strict: bool = False) -> BeliefDBMS:
    db = BeliefDBMS(sightings_schema(), strict=strict)
    db.add_user("Ann")
    db.add_user("Ben")
    return db


def _state(store) -> tuple:
    store.check_invariants()
    return (
        sorted(map(str, store.explicit_statements())),
        store.world_count(),
        dict(store.row_counts()),
    )


def _programmatic(db: BeliefDBMS, sql: str, params: tuple) -> None:
    """Write what ``sql`` writes through ``BeliefDBMS.insert`` / ``delete``;
    a shape with no programmatic form runs as SQL."""
    if sql == PLAIN:
        db.insert((), "Sightings", params)
    elif sql in (INSERT, DISPUTE):
        db.insert(params[:1], "Sightings", params[1:], "-" if sql == DISPUTE else "+")
    elif sql == VALUES_DELETE:
        db.delete(params[:1], "Sightings", params[1:])
    else:
        db.execute_sql(sql, params)


@given(st.lists(statements, max_size=12))
def test_four_routes_leave_identical_stores(sequence):
    auto, batched, committed, viewed = _db(), _db(), _db(), _db()
    programmatic = _db()

    for sql, params in sequence:
        before = auto.versions.epoch
        auto.execute_sql(sql, params)
        assert auto.versions.epoch == before + 1

    for sql, params in sequence:
        before = programmatic.versions.epoch
        _programmatic(programmatic, sql, params)
        assert programmatic.versions.epoch == before + 1

    for sql, run in itertools.groupby(sequence, key=lambda s: s[0]):
        before = batched.versions.epoch
        batched.execute_batch(sql, [params for _, params in run])
        assert batched.versions.epoch == before + 1

    txn = committed.begin_transaction()
    view_txn = viewed.begin_transaction()
    for sql, params in sequence:
        txn.stage(committed.prepare(sql), params)
        view_txn.stage(viewed.prepare(sql), params)
    before = committed.versions.epoch
    committed.commit_transaction(txn)
    assert committed.versions.epoch == before + (1 if sequence else 0)

    before = viewed.versions.epoch
    view_state = _state(view_txn.read_version().store)
    assert viewed.versions.epoch == before  # a view publishes nothing
    view_txn.discard()

    expected = _state(auto.store)
    assert _state(batched.store) == expected
    assert _state(committed.store) == expected
    assert view_state == expected
    assert _state(programmatic.store) == expected


def test_strict_rejection_is_one_error_on_every_write_route():
    db = _db(strict=True)
    params = ("Ann", *_row("s0", "crow"))
    db.execute_sql(INSERT, params)

    with pytest.raises(RejectedUpdateError) as programmatic:
        db.insert(["Ann"], "Sightings", _row("s0", "crow"))
    message = str(programmatic.value)

    with pytest.raises(RejectedUpdateError) as autocommit:
        db.execute_sql(INSERT, params)
    with pytest.raises(RejectedUpdateError) as batch:
        db.execute_batch(INSERT, [params])
    txn = db.begin_transaction()
    txn.stage(db.prepare(INSERT), params)
    with pytest.raises(TransactionAbortedError) as commit:
        db.commit_transaction(txn)

    assert str(autocommit.value) == str(batch.value) == message
    assert type(commit.value.__cause__) is RejectedUpdateError
    assert str(commit.value.__cause__) == message
    assert db.annotation_count() == 1


def test_only_two_callers_apply_compiled_dml():
    callers = {}
    root = pathlib.Path(repro.__file__).parent
    for path in root.rglob("*.py"):
        hits = len(re.findall(r"\bapply_compiled\(", path.read_text()))
        if hits and path.name != "dml.py":
            callers[path.relative_to(root).as_posix()] = hits
    # BeliefDBMS._execute_dml_row and Transaction.read_version.
    assert callers == {"bdms/bdms.py": 1, "bdms/transaction.py": 1}


def test_strict_delete_and_bad_input_errors_keep_their_types():
    db = _db(strict=True)
    row = _row("s0", "crow")
    with pytest.raises(RejectedUpdateError) as missing:
        db.delete(["Ann"], "Sightings", row)
    assert str(missing.value) == (
        f"delete rejected: no explicit statement for "
        f"{db.schema.tuple('Sightings', *row)} at (1,)"
    )
    with pytest.raises(SchemaError, match="unknown relation"):
        db.insert([], "Sightings values (?,?,?,?,?); --", row)
    with pytest.raises(SchemaError):
        db.insert([], "Sightings", row[:4])
    with pytest.raises(UnknownUserError):
        db.delete(["Zed"], "Sightings", row)
    with pytest.raises(ParameterBindingError):
        db.insert([], "Sightings", (*row[:4], None))
    before = db.versions.epoch
    db.insert(["Ann"], "Sightings", row)
    with pytest.raises(RejectedUpdateError):
        db.insert(["Ann"], "Sightings", row)
    # A rejected insert still publishes: idWorld may have made worlds.
    assert db.versions.epoch == before + 2
    assert db.annotation_count() == 1


def test_a_values_delete_reads_only_the_cell_it_names(monkeypatch):
    db = _db()
    for user in ("Ann", "Ben"):
        for sid in ("s0", "s1"):
            db.insert([user], "Sightings", _row(sid, "crow"))

    def scan(*args, **kwargs):
        raise AssertionError("a values delete scanned an explicit world")

    monkeypatch.setattr(BeliefDatabase, "explicit_world", scan)
    assert db.execute_sql(VALUES_DELETE, ("Ann", *_row("s0", "crow"))).rowcount == 1
    assert db.delete(["Ben"], "Sightings", _row("s1", "crow"))
    assert db.execute_sql(VALUES_DELETE, ("Ann", *_row("s0", "crow"))).rowcount == 0
    assert db.annotation_count() == 2
