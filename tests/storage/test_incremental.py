"""Property tests: incremental updates ≡ batch materialization.

The strongest correctness check in the suite: random insert/delete sequences
through Algorithms 2-4 must leave the store observably identical to a batch
re-materialization of the surviving explicit statements (and, for insert-only
sequences, structurally identical world contents with explicitness flags).
"""

from hypothesis import given

from repro.core.statements import BeliefStatement
from repro.storage.representation import materialize
from repro.storage.store import BeliefStore
from repro.storage.updates import delete_statement, insert_statement
from tests.strategies import (
    TINY_SCHEMA,
    USERS,
    belief_statements,
    budget,
    update_sequences,
)

from hypothesis import strategies as st


def fresh_store(eager: bool = True) -> BeliefStore:
    store = BeliefStore(TINY_SCHEMA, eager=eager)
    for uid in USERS:
        store.add_user(f"user{uid}", uid=uid)
    return store


def world_signature(store: BeliefStore, path):
    world = store.entailed_world(path)
    return (frozenset(world.positives), frozenset(world.negatives))


@given(st.lists(belief_statements(max_depth=3), max_size=15))
@budget(80)
def test_insert_only_matches_batch(statements):
    store = fresh_store()
    for stmt in statements:
        insert_statement(store, stmt)
    store.check_invariants()
    batch = materialize(store.to_belief_database(), user_names=store.users())
    assert store.states() == batch.states()
    # Same |R*|: rejected inserts must leave no orphan star rows behind.
    assert store.total_rows() == batch.total_rows()
    for path in batch.states():
        assert world_signature(store, path) == world_signature(batch, path)
        # Explicitness flags must agree too (they steer future updates).
        wid_inc = store.wid_for_path(path)
        wid_bat = batch.wid_for_path(path)
        inc_rows = {
            (store.tuple_for_tid(t), s, e)
            for (_, t, _, s, e) in store.v_rows_for_world(wid_inc)
        }
        bat_rows = {
            (batch.tuple_for_tid(t), s, e)
            for (_, t, _, s, e) in batch.v_rows_for_world(wid_bat)
        }
        assert inc_rows == bat_rows, path


@given(update_sequences(max_operations=25))
@budget(80)
def test_mixed_updates_match_batch_semantics(operations):
    store = fresh_store()
    for op, stmt in operations:
        if op == "insert":
            insert_statement(store, stmt)
        else:
            delete_statement(store, stmt)
    store.check_invariants()
    batch = materialize(store.to_belief_database(), user_names=store.users())
    # After deletes the incremental store may keep extra (empty) states; they
    # are semantically transparent, so compare entailed worlds on both state
    # sets plus a probe layer of deeper paths.
    probes = set(store.states()) | set(batch.states())
    probes |= {path + (u,) for path in list(probes) for u in USERS
               if not path or path[-1] != u}
    for path in probes:
        assert world_signature(store, path) == world_signature(batch, path), path
    # Explicitness flags steer later updates: they must agree on every
    # state both stores hold.
    for path in store.states() & batch.states():
        assert flagged_rows(store, path) == flagged_rows(batch, path), path


def flagged_rows(store: BeliefStore, path) -> set:
    """The world's V rows as (tuple, sign, explicitness flag)."""
    return {
        (store.tuple_for_tid(tid), s, e)
        for (_, tid, _, s, e) in store.v_rows_for_world(store.wid_for_path(path))
    }


@given(update_sequences(max_operations=25), st.integers(0, 25))
@budget(40)
def test_a_fork_pinned_mid_sequence_keeps_its_state(operations, pin_at):
    """A fork taken between two updates is a reader pinned across the rest:
    the batched writes after it must leave it equal to a batch
    materialization of the statements of that moment."""
    store = fresh_store()
    pin_at = min(pin_at, len(operations))
    for op, stmt in operations[:pin_at]:
        (insert_statement if op == "insert" else delete_statement)(store, stmt)
    fork, pinned = store.fork_snapshot(), store.to_belief_database()
    for op, stmt in operations[pin_at:]:
        (insert_statement if op == "insert" else delete_statement)(store, stmt)
    fork.check_invariants()
    batch = materialize(pinned, user_names=store.users())
    probes = set(fork.states()) | set(batch.states())
    probes |= {path + (u,) for path in list(probes) for u in USERS
               if not path or path[-1] != u}
    for path in probes:
        assert world_signature(fork, path) == world_signature(batch, path), path
    for path in fork.states() & batch.states():
        assert flagged_rows(fork, path) == flagged_rows(batch, path), path


@given(update_sequences(max_operations=20))
@budget(40)
def test_lazy_and_eager_stores_agree(operations):
    eager = fresh_store(eager=True)
    lazy = fresh_store(eager=False)
    for op, stmt in operations:
        if op == "insert":
            assert insert_statement(eager, stmt) == insert_statement(lazy, stmt)
        else:
            assert delete_statement(eager, stmt) == delete_statement(lazy, stmt)
    probes = set(eager.states())
    probes |= {path + (u,) for path in list(probes) for u in USERS
               if not path or path[-1] != u}
    for path in probes:
        assert world_signature(eager, path) == world_signature(lazy, path), path
    # The lazy store must be no larger than the eager one.
    assert lazy.total_rows() <= eager.total_rows()


@given(st.lists(belief_statements(max_depth=2), max_size=12))
@budget(50)
def test_acceptance_agrees_with_core_consistency(statements):
    """Alg. 4 accepts exactly the statements the core model accepts."""
    from repro.core.database import BeliefDatabase
    from repro.errors import InconsistencyError

    store = fresh_store()
    core = BeliefDatabase(schema=TINY_SCHEMA, users=USERS)
    for stmt in statements:
        accepted_core = True
        if stmt in core:
            accepted_core = False  # duplicate: Alg. 4 line 3 returns false
        else:
            try:
                core.add(stmt)
            except InconsistencyError:
                accepted_core = False
        assert insert_statement(store, stmt) == accepted_core, stmt
    assert store.explicit_db.statements() == core.statements()
