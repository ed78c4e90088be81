"""Batch materialization of the canonical representation (Sect. 5.1, Fig. 5).

:func:`materialize` builds a :class:`BeliefStore` for a core
:class:`BeliefDatabase` *from scratch*: register users, assign world ids in
(depth, path) order (so the running example reproduces Fig. 5's numbering),
lay down ``D``/``S``/``E``, then fill the star and valuation tables from the
closure. It deliberately shares no code with the incremental algorithms of
:mod:`repro.storage.updates` — the property tests compare the two table-by-
table, which is the strongest check we have on both.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.closure import entailed_world
from repro.core.database import BeliefDatabase
from repro.core.paths import ROOT_PATH, BeliefPath, User, can_extend
from repro.core.schema import ExternalSchema
from repro.core.statements import NEGATIVE, POSITIVE
from repro.core.worlds import BeliefWorld
from repro.errors import SchemaError
from repro.storage.internal_schema import (
    EXPLICIT_NO,
    EXPLICIT_YES,
    ROOT_WID,
    SIGN_NEG,
    SIGN_POS,
)
from repro.storage.store import BeliefStore


def _user_order_key(user: User) -> tuple[str, str]:
    return (type(user).__name__, repr(user))


def _path_order_key(path: BeliefPath) -> tuple[int, tuple[tuple[str, str], ...]]:
    return (len(path), tuple(_user_order_key(u) for u in path))


def materialize(
    belief_db: BeliefDatabase,
    eager: bool = True,
    user_names: Mapping[User, str] | None = None,
) -> BeliefStore:
    """Build the relational representation of ``belief_db``.

    World ids are assigned breadth-first by (depth, path order); users are
    registered in sorted order. ``user_names`` optionally supplies display
    names for the ``U`` table. The input database must be consistent and must
    carry a schema.
    """
    if belief_db.schema is None:
        raise SchemaError("materialize requires a belief database with a schema")
    belief_db.check_consistent()
    schema: ExternalSchema = belief_db.schema
    store = BeliefStore(schema, eager=eager)

    names = dict(user_names or {})
    for user in sorted(belief_db.all_users(), key=_user_order_key):
        store.add_user(name=names.get(user), uid=user)

    states = sorted(belief_db.states(), key=_path_order_key)
    for path in states:
        if path == ROOT_PATH:
            continue
        # Parent suffix states are shallower, hence already registered.
        store.register_world(path, store.wid_of_dss(path[1:]))

    # Edges can only be final once every state exists.
    for path in states:
        wid = store.wid_for_path(path)
        assert wid is not None
        for uid in sorted(store.users(), key=_user_order_key):
            if can_extend(path, uid):
                store.set_edge(wid, uid, store.wid_of_dss(path + (uid,)))

    for path in states:
        wid = store.wid_for_path(path)
        assert wid is not None
        world = (
            entailed_world(belief_db, path)
            if eager
            else belief_db.explicit_world(path)
        )
        explicit = belief_db.explicit_signs(path)
        _fill_world(store, wid, world, explicit)

    store.explicit_count = len(belief_db)
    return store


def _fill_world(
    store: BeliefStore,
    wid: int,
    world: BeliefWorld,
    explicit: set,
) -> None:
    for t in sorted(world.positives, key=repr):
        tid = store.tid_for(t, create=True)
        flag = EXPLICIT_YES if (t, POSITIVE) in explicit else EXPLICIT_NO
        store.insert_v(t.relation, wid, tid, t.key, SIGN_POS, flag)
    for t in sorted(world.negatives, key=repr):
        tid = store.tid_for(t, create=True)
        flag = EXPLICIT_YES if (t, NEGATIVE) in explicit else EXPLICIT_NO
        store.insert_v(t.relation, wid, tid, t.key, SIGN_NEG, flag)


def rebuild(store: BeliefStore, eager: bool | None = None) -> BeliefStore:
    """Re-materialize a store from its own explicit statements.

    Useful for compaction after many deletes (stale empty states disappear)
    and as the reference in incremental-vs-batch tests.
    """
    return materialize(
        store.to_belief_database(),
        eager=store.eager if eager is None else eager,
        user_names=store.users(),
    )
