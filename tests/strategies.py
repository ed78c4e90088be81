"""Hypothesis strategies for belief databases and queries.

Kept deliberately tiny: three users, a handful of keys and species, depth ≤ 3.
Small domains force collisions (key conflicts, overridden defaults, back
edges), which is where all the interesting semantics lives.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st

from repro.core.database import BeliefDatabase
from repro.core.schema import ExternalSchema, RelationDef
from repro.core.statements import NEGATIVE, POSITIVE, BeliefStatement
from repro.errors import InconsistencyError

USERS = (1, 2, 3)
KEYS = ("k0", "k1", "k2")
VALUES = ("a", "b", "c")


def budget(examples: int) -> settings:
    """``@settings`` for a property that runs ``examples`` examples in
    tier-1: the loaded hypothesis profile may raise that budget (CI's
    ``storage-props``), never lower it. (A plain ``max_examples=`` would
    override every profile.)"""
    return settings(max_examples=max(examples, settings().max_examples))


def tiny_schema() -> ExternalSchema:
    return ExternalSchema(
        [
            RelationDef("R", ("key", "val")),
            RelationDef("Users", ("uid", "name")),
        ],
        users_relation="Users",
    )


TINY_SCHEMA = tiny_schema()


@st.composite
def belief_paths(draw, max_depth: int = 3):
    depth = draw(st.integers(min_value=0, max_value=max_depth))
    path: list[int] = []
    while len(path) < depth:
        user = draw(st.sampled_from(USERS))
        if path and path[-1] == user:
            continue
        path.append(user)
    return tuple(path)


@st.composite
def ground_tuples(draw):
    key = draw(st.sampled_from(KEYS))
    val = draw(st.sampled_from(VALUES))
    return TINY_SCHEMA.tuple("R", key, val)


@st.composite
def belief_statements(draw, max_depth: int = 3):
    return BeliefStatement(
        draw(belief_paths(max_depth)),
        draw(ground_tuples()),
        draw(st.sampled_from((POSITIVE, POSITIVE, NEGATIVE))),
    )


@st.composite
def belief_databases(draw, max_statements: int = 12, max_depth: int = 3):
    """A consistent belief database built by skipping conflicting statements.

    Mirrors how a BDMS accumulates state: inconsistent inserts are rejected,
    everything else lands.
    """
    statements = draw(
        st.lists(belief_statements(max_depth), max_size=max_statements)
    )
    db = BeliefDatabase(schema=TINY_SCHEMA, users=USERS)
    for stmt in statements:
        try:
            db.add(stmt)
        except InconsistencyError:
            pass
    return db


@st.composite
def update_sequences(draw, max_operations: int = 20, max_depth: int = 3):
    """A sequence of (op, statement) pairs: op is "insert" or "delete".

    Deletions pick arbitrary statements — most will miss, some will hit ones
    inserted earlier, which is exactly the mix the store must survive.
    """
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("insert", "insert", "insert", "delete")),
                belief_statements(max_depth),
            ),
            max_size=max_operations,
        )
    )
    return ops
