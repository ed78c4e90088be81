"""Differential property test: a carried-forward mirror never drifts.

One random sequence of writes — inserts of positive and negative beliefs
at depth 0-2, deletes, BeliefSQL updates, new users, committed and aborted
transactions — is applied to a ``backend="sqlite"`` and a
``backend="engine"`` database alike, with reads interleaved at random
points (so some epochs are never mirrored: several writes fold into one
delta). After every read the sqlite side's mirror must equal, as a
multiset of rows *with their rowids*, a mirror built from empty off the
same version, carry exactly the declared indexes, and answer the paper's
seven query shapes as the engine does.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bdms.bdms import BeliefDBMS
from repro.bench.queries import paper_queries
from repro.core.schema import experiment_schema
from repro.errors import TransactionAbortedError
from tests.relational.mirror_helpers import assert_mirror_is_exact

USERS = ("u1", "u2", "u3")  # uids 1-3: the ids paper_queries() asks about
SIDS = ("s0", "s1", "s2", "s3")
SPECIES = ("crow", "raven")
LOCATIONS = ("Lake Placid", "Union Bay")  # q3 asks about the first
INSERT = "insert into BELIEF ? Sightings values (?,?,?,?,?)"
UPDATE = "update BELIEF ? Sightings set species = ? where sid = ?"
QUERIES = paper_queries()


@st.composite
def paths(draw):
    path = draw(st.lists(st.sampled_from(USERS), max_size=2))
    return tuple(path[:1] if len(set(path)) < len(path) else path)


rows = st.tuples(
    st.sampled_from(SIDS), st.just("u1"), st.sampled_from(SPECIES),
    st.just("6-14-08"), st.sampled_from(LOCATIONS),
)
staged_rows = st.lists(
    st.tuples(st.sampled_from(USERS), rows), min_size=1, max_size=3
)
operations = st.one_of(
    st.tuples(st.just("insert"), paths(), rows, st.sampled_from("+-")),
    st.tuples(st.just("insert"), paths(), rows, st.sampled_from("+-")),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=99)),
    st.tuples(
        st.just("update"), st.sampled_from(USERS),
        st.sampled_from(SPECIES), st.sampled_from(SIDS),
    ),
    st.tuples(st.just("add_user")),
    st.tuples(st.just("commit"), staged_rows),
    st.tuples(st.just("aborted_commit"), staged_rows),
    st.tuples(st.just("read")),
    st.tuples(st.just("read")),
    st.tuples(st.just("read")),
)


def apply(db: BeliefDBMS, op: tuple):
    kind = op[0]
    if kind == "insert":
        return db.insert(op[1], "Sightings", op[2], sign=op[3])
    if kind == "delete":  # of the n-th explicit statement: a hit, mostly
        explicit = sorted(db.store.explicit_statements(), key=str)
        if not explicit:
            return False
        doomed = explicit[op[1] % len(explicit)]
        return db.delete(
            doomed.path, "Sightings", doomed.tuple.values, sign=doomed.sign
        )
    if kind == "update":
        return db.execute_sql(UPDATE, op[1:]).rowcount
    if kind == "add_user":
        return db.add_user()
    txn = db.begin_transaction()
    for user, row in op[1]:
        txn.stage(db.prepare(INSERT), (user,) + row)
    if kind == "commit":
        return db.commit_transaction(txn).rowcount
    # An unknown user fails at apply time, after the rows above went in:
    # the store is rebuilt from scratch and every rowid restarts.
    txn.stage(db.prepare(INSERT), ("nobody",) + op[1][0][1])
    with pytest.raises(TransactionAbortedError):
        db.commit_transaction(txn)
    return "aborted"


def fresh_pair() -> tuple[BeliefDBMS, BeliefDBMS]:
    dbs = tuple(
        BeliefDBMS(experiment_schema(), backend=backend, strict=False)
        for backend in ("sqlite", "engine")
    )
    for db in dbs:
        for name in USERS:
            db.add_user(name)
    return dbs


@given(st.lists(operations, min_size=4, max_size=40))
def test_carried_mirror_equals_a_fresh_build_and_the_engine(ops):
    sqlite, engine = fresh_pair()
    for op in (*ops, ("read",)):
        if op[0] != "read":
            assert apply(sqlite, op) == apply(engine, op), op
            continue
        for name, query in QUERIES.items():
            assert sqlite.query(query) == engine.query(query), name
        assert_mirror_is_exact(sqlite)
    stats = sqlite.snapshot_stats()["mvcc"]
    assert sqlite.versions.live_versions() == 1
    # Only a wholesale replacement of the store costs a second full build.
    aborted = sum(op[0] == "aborted_commit" for op in ops)
    assert 1 <= stats["mirror_syncs_full"] <= 1 + aborted
