"""Point reads: ``BeliefStore.entails`` is Def. 12 + Prop. 7 without a world.

``believes`` asks one question of one world: ``D |= w t^s``. Prop. 7 answers
it from the tuples sharing ``t``'s key, which an eager store keeps in one
``V(wid, key)`` bucket. These properties hold that probe to the two full
computations it replaces — the stored world's ``BeliefWorld.entails`` and
the core closure over the explicit statements — on generated stores, eager
and lazy, for both signs, stated and unstated negatives, tuples that were
never inserted, and paths that are not states. The count test checks that
an eager ``believes`` builds no world at all.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given

from repro.bdms.bdms import BeliefDBMS
from repro.core import closure
from repro.core.paths import format_path
from repro.core.schema import sightings_schema
from repro.core.statements import NEGATIVE, POSITIVE, BeliefStatement
from repro.errors import InvalidBeliefPath, SchemaError, UnknownUserError
from repro.storage import store as store_module
from repro.storage.store import BeliefStore
from repro.storage.updates import delete_statement, insert_statement
from tests.strategies import (
    KEYS,
    TINY_SCHEMA,
    USERS,
    VALUES,
    belief_paths,
    budget,
    update_sequences,
)

#: Same key as drawn tuples, a value no strategy draws: never has a tid.
NEVER_INSERTED = TINY_SCHEMA.tuple("R", "k0", "never")
#: A key no strategy draws: its bucket is empty in every world.
UNKNOWN_KEY = TINY_SCHEMA.tuple("R", "k9", "a")
#: Every tuple of the domain: each drawn tuple's same-key variants, which
#: differ from it in one attribute, are among them.
PROBE_TUPLES = [
    TINY_SCHEMA.tuple("R", key, val) for key, val in itertools.product(KEYS, VALUES)
] + [NEVER_INSERTED, UNKNOWN_KEY]
#: Every valid path of depth <= 2 over the three users.
SHALLOW_PATHS = [
    path
    for depth in range(3)
    for path in itertools.product(USERS, repeat=depth)
    if all(a != b for a, b in zip(path, path[1:]))
]


def loaded_store(operations, eager: bool) -> BeliefStore:
    store = BeliefStore(TINY_SCHEMA, eager=eager)
    for uid in USERS:
        store.add_user(f"user{uid}", uid=uid)
    for op, stmt in operations:
        (insert_statement if op == "insert" else delete_statement)(store, stmt)
    return store


@given(update_sequences(max_operations=20), belief_paths(max_depth=3))
@budget(60)
def test_entails_is_def12_and_prop7(operations, deep_path):
    for eager in (True, False):
        store = loaded_store(operations, eager)
        paths = set(SHALLOW_PATHS) | set(store.states()) | {deep_path}
        for path in paths:
            stored = (
                store.state_world(store.resolve_path(path)) if eager else None
            )
            for t, sign in itertools.product(PROBE_TUPLES, (POSITIVE, NEGATIVE)):
                got = store.entails(path, t, sign)
                want = closure.entails(
                    store.explicit_db, BeliefStatement(path, t, sign)
                )
                assert got == want, (eager, path, t, sign)
                if stored is not None:
                    assert got == stored.entails(t, sign), (path, t, sign)
        assert store.tid_for(NEVER_INSERTED) is None
        # A bad path fails as the world read fails: same typed error.
        for path, error in (((9,), UnknownUserError),
                            ((1, 2, 2), InvalidBeliefPath)):
            with pytest.raises(error):
                store.entailed_world(path)
            for sign in (POSITIVE, NEGATIVE):
                with pytest.raises(error):
                    store.entails(path, PROBE_TUPLES[0], sign)


@given(update_sequences(max_operations=20))
@budget(60)
def test_sign_counts_are_the_worlds_sizes(operations):
    """What the ``worlds`` op and the REPL's ``\\worlds`` print per state."""
    for eager in (True, False):
        store = loaded_store(operations, eager)
        for path in store.states():
            world = store.entailed_world(path)
            assert store.sign_counts(path) == (
                len(world.positives), len(world.negatives)
            ), (eager, path)


# ------------------------------------------------------------- BeliefDBMS

CROW = ("s1", "Carol", "crow", "6-14-08", "Lake Forest")
RAVEN = ("s1", "Carol", "raven", "6-14-08", "Lake Forest")
EAGLE = ("s2", "Carol", "bald eagle", "6-15-08", "Lake Forest")
OWL = ("s3", "Carol", "owl", "6-16-08", "Lake Forest")


@pytest.fixture(params=[True, False], ids=["eager", "lazy"])
def db(request):
    db = BeliefDBMS(sightings_schema(), eager=request.param)
    db.add_user("Carol")
    db.add_user("Bob")
    db.insert([], "Sightings", CROW)
    db.insert(["Bob"], "Sightings", EAGLE, sign="-")
    return db


def test_believes_builds_no_world_on_an_eager_store(monkeypatch):
    db = BeliefDBMS(sightings_schema())
    db.add_user("Bob")
    db.insert([], "Sightings", CROW)
    db.insert(["Bob"], "Sightings", EAGLE, sign="-")

    def refuse(*args, **kwargs):
        raise AssertionError("believes built a belief world")

    monkeypatch.setattr(BeliefStore, "state_world", refuse)
    monkeypatch.setattr(closure, "entailed_world", refuse)
    monkeypatch.setattr(store_module, "core_entailed_world", refuse)
    assert db.believes(["Bob"], "Sightings", CROW, "+") is True
    assert db.believes(["Bob"], "Sightings", OWL, "+") is False
    assert db.believes(["Bob"], "Sightings", EAGLE, "-") is True   # stated
    assert db.believes(["Bob"], "Sightings", RAVEN, "-") is True   # unstated
    assert db.believes(["Bob"], "Sightings", CROW, "-") is False
    with pytest.raises(AssertionError, match="built a belief world"):
        db.world(["Bob"])


def test_believes_answers_as_the_world_does(db):
    for path in ([], ["Carol"], ["Bob"], ["Carol", "Bob"], ["Bob", "Carol"]):
        world = db.world(path)
        for values in (CROW, RAVEN, EAGLE, OWL):
            t = db.schema.tuple("Sightings", *values)
            for sign in (POSITIVE, NEGATIVE):
                assert db.believes(path, "Sightings", values, sign) == (
                    world.entails(t, sign)
                ), (path, values, sign)
    # The users catalog is no belief relation: nothing in it is entailed.
    for sign in (POSITIVE, NEGATIVE):
        assert db.believes([], "Users", (1, "Carol"), sign) is False
    # eSPARQL's distinction: "does not believe t" is not "believes not-t".
    assert db.believes(["Bob"], "Sightings", RAVEN, "+") is False
    assert db.believes(["Bob"], "Sightings", RAVEN, "-") is True
    assert db.believes(["Bob"], "Sightings", OWL, "+") is False
    assert db.believes(["Bob"], "Sightings", OWL, "-") is False


def test_believes_errors_stay_typed(db):
    with pytest.raises(UnknownUserError):
        db.believes(["Nobody"], "Sightings", CROW)
    with pytest.raises(InvalidBeliefPath):
        db.believes(["Bob", "Bob"], "Sightings", CROW)
    with pytest.raises(SchemaError):
        db.believes(["Bob"], "Sightings", CROW[:3])
    with pytest.raises(SchemaError):
        db.believes(["Bob"], "Nope", CROW)


def test_believes_reads_committed_state_inside_a_transaction():
    """A staged insert is not believed until commit; a select in the same
    transaction already sees it (read-your-own-writes is for selects)."""
    from repro.api import connect

    conn = connect(sightings_schema())
    conn.begin()
    conn.execute("insert into Sightings values (?,?,?,?,?)", OWL)
    assert conn.execute("select S.sid from Sightings as S").rows == [("s3",)]
    assert conn.db.believes([], "Sightings", OWL) is False
    conn.commit()
    assert conn.db.believes([], "Sightings", OWL) is True


def test_worlds_op_and_repl_report_each_worlds_size(db):
    from repro.bdms.repl import BeliefShell
    from repro.server import BeliefServer
    from repro.server.client import BeliefClient

    db.insert(["Carol", "Bob"], "Sightings", RAVEN)
    sizes = {
        path: (len(world.positives), len(world.negatives))
        for path in db.store.states()
        for world in [db.world(list(path))]
    }
    with BeliefServer(db) as server, BeliefClient(*server.address) as client:
        listed = client.worlds()
    assert {
        tuple(entry["path"]): (entry["positives"], entry["negatives"])
        for entry in listed
    } == sizes
    lines = BeliefShell(db).feed("\\worlds").splitlines()
    assert sorted(lines) == sorted(
        f"  {format_path(path)}: {pos}+ / {neg}-"
        for path, (pos, neg) in sizes.items()
    )
