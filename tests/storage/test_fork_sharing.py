"""What a pinned version costs the writer, counted by object identity.

A fork shares the store's world, user and tuple registries (and its
tables, V's explicit ``e='y'`` rows among them). The side that changes a
registry first copies it only while the other still holds it, so:

* pin -> release -> write copies nothing: the live store keeps the very
  objects it had;
* a pin held across a write makes the write copy, and the fork keeps the
  objects — and so the statements, worlds, users and edges — it was frozen
  with;
* the append-only tuple registries are never copied for a reader: a fork
  ignores every tid at or above its own watermark.
"""

from __future__ import annotations

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.core.statements import NEGATIVE, POSITIVE
from repro.storage.compaction import compact, vacuum_star
from repro.storage.updates import delete_statement

ROW = ("s1", "Carol", "bald eagle", "6-14-08", "Lake Forest")

REGISTRIES = (
    "_wid_by_path", "_path_by_wid", "_depth", "_s_parent", "_s_children",
    "_edges", "_users", "_uid_by_name", "_tid_by_tuple", "_tuple_by_tid",
)


def seeded_db() -> BeliefDBMS:
    db = BeliefDBMS(sightings_schema())
    db.add_user("Carol")
    db.add_user("Bob")
    db.insert(["Carol"], "Sightings", ROW)
    db.insert(["Bob", "Carol"], "Sightings", ("s2",) + ROW[1:])
    return db


def held_objects(store) -> dict[str, object]:
    return {name: getattr(store, name) for name in REGISTRIES}


def write_everything(db: BeliefDBMS) -> None:
    """A tuple, a user, worlds, edges redirected and a delete. A statement
    goes first: it drops the current version no reader has pinned
    (``BeliefDBMS._writing``), which a lone ``add_user`` does not."""
    db.insert(["Bob"], "Sightings", ("s5",) + ROW[1:])
    db.add_user("Alice")
    db.insert(["Alice", "Bob"], "Sightings", ("s3",) + ROW[1:])
    db.insert(["Alice"], "Sightings", ("s4",) + ROW[1:], sign="-")
    db.delete(["Carol"], "Sightings", ROW)


def frozen_state(store) -> dict[str, object]:
    return {
        "statements": set(store.explicit_statements()),
        "states": store.states(),
        "users": store.users(),
        "edges": {
            wid: dict(store._edges[wid]) for wid in store._path_by_wid
        },
        "worlds": {
            path: store.entailed_world(path) for path in store.states()
        },
    }


def test_pin_release_write_copies_nothing():
    db = seeded_db()
    version = db.pin_version()
    db.release_version(version)
    del version
    # Identities only: holding the objects would itself be a reason to copy.
    # A copy is made while its original is alive, so it gets a new id.
    before = {name: id(held) for name, held in held_objects(db.store).items()}
    write_everything(db)
    after = {name: id(held) for name, held in held_objects(db.store).items()}
    copied = [name for name in before if after[name] != before[name]]
    assert copied == []
    db.store.check_invariants()


def test_a_pin_held_across_the_write_gets_the_copy():
    db = seeded_db()
    version = db.pin_version()
    try:
        fork = version.store
        shared = held_objects(db.store)
        assert all(
            held_objects(fork)[name] is held for name, held in shared.items()
        )
        frozen = frozen_state(fork)
        write_everything(db)
        live = held_objects(db.store)
        # Every registry the write changed was copied; the append-only
        # tuple registries were not, and stay shared.
        assert [
            name for name in shared if live[name] is shared[name]
        ] == ["_tid_by_tuple", "_tuple_by_tid"]
        assert all(
            held_objects(fork)[name] is held for name, held in shared.items()
        )
        assert frozen_state(fork) == frozen
        assert frozen_state(db.store) != frozen
        assert db.store.has_user(db.store.uid_for_name("Alice"))
        assert not fork.has_user(db.store.uid_for_name("Alice"))
    finally:
        db.release_version(version)
    db.store.check_invariants()
    fork.check_invariants()


def test_a_tid_created_after_a_fork_is_invisible_to_it():
    db = seeded_db()
    store = db.store
    fork = store.fork_snapshot()
    t = db.schema.tuple("Sightings", "s9", *ROW[1:])
    db.insert(["Carol"], "Sightings", t.values)
    tid = store.tid_for(t)
    assert tid is not None and tid >= fork._next_tid
    assert fork._tid_by_tuple is store._tid_by_tuple  # appended, not copied
    assert fork.tid_for(t) is None
    assert not fork.entails((1,), t, POSITIVE)
    assert fork.entails((1,), t, NEGATIVE) is False
    assert store.entails((1,), t, POSITIVE)
    key = ((1,), t.relation, t.values, str(POSITIVE))
    assert store.statement_slot(key) is not None
    assert fork.statement_slot(key) is None


def test_a_fork_that_writes_takes_its_own_tuple_registry():
    db = seeded_db()
    store = db.store
    fork = store.fork_snapshot()
    mine = db.schema.tuple("Sightings", "s8", *ROW[1:])
    theirs = db.schema.tuple("Sightings", "s9", *ROW[1:])
    forked_tid = fork.tid_for(mine, create=True)
    assert fork._tid_by_tuple is not store._tid_by_tuple
    assert store.tid_for(mine) is None
    live_tid = store.tid_for(theirs, create=True)
    assert live_tid == forked_tid  # two namespaces from one watermark
    assert fork.tid_for(theirs) is None
    assert fork.tuple_for_tid(forked_tid) == mine
    assert store.tuple_for_tid(live_tid) == theirs


def test_a_fork_taken_before_vacuum_or_compact_resolves_its_tids():
    db = seeded_db()
    store = db.store
    delete_statement(store, next(store.explicit_statements()))
    fork = store.fork_snapshot()
    held = dict(fork._tuple_by_tid)
    assert vacuum_star(store).removed_tuples == 1
    assert compact(store).store is not store
    assert len(store._tuple_by_tid) == len(held) - 1
    for tid, t in held.items():
        assert fork.tuple_for_tid(tid) == t
        assert fork.tid_for(t) == tid
    fork.check_invariants()
