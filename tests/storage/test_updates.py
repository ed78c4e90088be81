"""The update algorithms of Sect. 5.3: idWorld, dss, insertTuple, deletes."""

import pytest

from repro.core.schema import sightings_schema
from repro.core.statements import NEGATIVE, POSITIVE, ground, negative, positive
from repro.errors import UnknownUserError
from repro.storage.store import BeliefStore
from repro.storage.updates import (
    delete_statement,
    delete_tuple,
    dss_relational,
    id_world,
    insert_statement,
    insert_tuple,
)
from tests.conftest import ALICE, BOB, CAROL, USER_NAMES


@pytest.fixture
def store(schema):
    store = BeliefStore(schema)
    for uid, name in USER_NAMES.items():
        store.add_user(name, uid=uid)
    return store


def t(schema, key="s1", species="crow"):
    return schema.tuple("Sightings", key, 1, species, "d", "loc")


class TestIdWorld:
    def test_root_exists(self, store):
        assert id_world(store, ()) == 0

    def test_creates_prefix_chain(self, store):
        wid = id_world(store, (ALICE, BOB))
        assert store.path_for_wid(wid) == (ALICE, BOB)
        assert store.wid_for_path((ALICE,)) is not None
        assert store.depth_of(wid) == 2

    def test_idempotent(self, store):
        assert id_world(store, (ALICE,)) == id_world(store, (ALICE,))

    def test_s_backlink_is_dss_of_suffix(self, store):
        wid = id_world(store, (CAROL, ALICE, BOB))
        # dss((ALICE, BOB)) is the (ALICE, BOB) state created by the prefix
        # chain? No: prefixes of (CAROL, ALICE, BOB) are (CAROL,), (CAROL,
        # ALICE). The suffix (ALICE, BOB) is NOT a state, so the backlink
        # falls through to dss = root... unless (BOB,) exists. Verify exactly:
        expected = store.wid_of_dss((ALICE, BOB))
        assert store.s_parent(wid) == expected

    def test_edge_redirection_on_new_deeper_state(self, store):
        # Existing state (BOB,): its ALICE-edge goes to the root (no (BOB,
        # ALICE) yet); after creating (BOB, ALICE) it must point there.
        bob = id_world(store, (BOB,))
        assert store.edge_target(bob, ALICE) == 0
        ba = id_world(store, (BOB, ALICE))
        assert store.edge_target(bob, ALICE) == ba

    def test_s_repointing_when_middle_state_appears(self, store):
        # Create (CAROL, ALICE) first: its S-parent is the root ((ALICE,)
        # does not exist yet). When (ALICE,) appears, it must be repointed.
        ca = id_world(store, (CAROL, ALICE))
        assert store.s_parent(ca) == 0
        alice = id_world(store, (ALICE,))
        assert store.s_parent(ca) == alice
        store.check_invariants()

    def test_new_world_inherits_dss_content(self, store, schema):
        insert_tuple(store, (), t(schema), POSITIVE)
        wid = id_world(store, (ALICE, BOB, CAROL))
        rows = store.v_rows_for_world(wid, "Sightings")
        assert len(rows) == 1 and rows[0][4] == "n"

    def test_rejects_unregistered_users(self, store):
        with pytest.raises(UnknownUserError):
            id_world(store, (99,))


class TestDssRelational:
    def test_agrees_with_registry(self, store):
        id_world(store, (BOB, ALICE))
        id_world(store, (CAROL,))
        probes = [
            (), (ALICE,), (BOB,), (BOB, ALICE), (CAROL, BOB, ALICE),
            (ALICE, BOB), (CAROL, ALICE), (ALICE, CAROL, BOB, ALICE),
        ]
        for path in probes:
            assert dss_relational(store, path) == store.wid_of_dss(path), path

    def test_root_for_unknown_suffixes(self, store):
        assert dss_relational(store, (CAROL,)) == 0


class TestInsertTuple:
    def test_plain_insert(self, store, schema):
        assert insert_tuple(store, (), t(schema), POSITIVE)
        assert t(schema) in store.entailed_world(()).positives

    def test_duplicate_explicit_returns_false(self, store, schema):
        insert_tuple(store, (), t(schema), POSITIVE)
        assert not insert_tuple(store, (), t(schema), POSITIVE)

    def test_explicit_conflict_blocks(self, store, schema):
        insert_tuple(store, (ALICE,), t(schema, species="crow"), POSITIVE)
        # Γ1: same key, different species, same world.
        assert not insert_tuple(store, (ALICE,), t(schema, species="raven"), POSITIVE)
        # Γ2: same tuple negative.
        assert not insert_tuple(store, (ALICE,), t(schema, species="crow"), NEGATIVE)

    def test_flip_implicit_to_explicit(self, store, schema):
        insert_tuple(store, (), t(schema), POSITIVE)
        id_world(store, (ALICE,))
        # Alice holds the tuple implicitly; restating it flips e to 'y'.
        assert insert_tuple(store, (ALICE,), t(schema), POSITIVE)
        rows = store.v_rows_for_key(store.wid_for_path((ALICE,)), "Sightings", "s1")
        assert rows[0][4] == "y"
        # Content unchanged; now also survives a root-side delete.
        delete_tuple(store, (), t(schema), POSITIVE)
        assert t(schema) in store.entailed_world((ALICE,)).positives
        store.check_invariants()

    def test_default_propagation(self, store, schema):
        id_world(store, (BOB, ALICE))
        insert_tuple(store, (ALICE,), t(schema), POSITIVE)
        # (BOB, ALICE) inherits Alice's new belief as an implicit default.
        assert t(schema) in store.entailed_world((BOB, ALICE)).positives
        store.check_invariants()

    def test_explicit_disagreement_blocks_propagation(self, store, schema):
        insert_tuple(store, (BOB,), t(schema), NEGATIVE)
        insert_tuple(store, (), t(schema), POSITIVE)
        assert t(schema) not in store.entailed_world((BOB,)).positives
        assert t(schema) in store.entailed_world((ALICE,)).positives
        store.check_invariants()

    def test_override_implicit_on_alternative(self, store, schema):
        crow, raven = t(schema, species="crow"), t(schema, species="raven")
        insert_tuple(store, (), crow, POSITIVE)
        id_world(store, (ALICE,))
        assert crow in store.entailed_world((ALICE,)).positives
        # Alice asserts the alternative: the implicit crow is overridden.
        assert insert_tuple(store, (ALICE,), raven, POSITIVE)
        w = store.entailed_world((ALICE,))
        assert raven in w.positives and crow not in w.positives
        store.check_invariants()

    def test_lazy_mode_stores_only_explicit(self, schema):
        store = BeliefStore(schema, eager=False)
        store.add_user("Alice", uid=ALICE)
        store.add_user("Bob", uid=BOB)
        insert_tuple(store, (), t(schema), POSITIVE)
        id_world(store, (ALICE,))
        rows = store.v_rows_for_world(store.wid_for_path((ALICE,)))
        assert rows == []
        # Entailment still works through the closure.
        assert t(schema) in store.entailed_world((ALICE,)).positives


class TestDeleteTuple:
    def test_delete_restores_default(self, store, schema):
        insert_tuple(store, (), t(schema), POSITIVE)
        insert_tuple(store, (BOB,), t(schema), NEGATIVE)
        assert t(schema) in store.entailed_world((BOB,)).negatives
        assert delete_tuple(store, (BOB,), t(schema), NEGATIVE)
        # With the disagreement gone, Bob re-inherits the root default.
        assert t(schema) in store.entailed_world((BOB,)).positives
        store.check_invariants()

    def test_delete_cascades_to_dependents(self, store, schema):
        insert_tuple(store, (ALICE,), t(schema), POSITIVE)
        id_world(store, (BOB, ALICE))
        assert t(schema) in store.entailed_world((BOB, ALICE)).positives
        delete_tuple(store, (ALICE,), t(schema), POSITIVE)
        assert t(schema) not in store.entailed_world((BOB, ALICE)).positives
        store.check_invariants()

    def test_delete_nonexistent_returns_false(self, store, schema):
        assert not delete_tuple(store, (ALICE,), t(schema), POSITIVE)
        insert_tuple(store, (), t(schema), POSITIVE)
        id_world(store, (ALICE,))
        # Implicit beliefs cannot be deleted.
        assert not delete_tuple(store, (ALICE,), t(schema), POSITIVE)

    def test_delete_at_root(self, store, schema):
        insert_tuple(store, (), t(schema), POSITIVE)
        id_world(store, (ALICE, BOB))
        assert delete_tuple(store, (), t(schema), POSITIVE)
        for path in [(), (ALICE,), (ALICE, BOB)]:
            assert t(schema) not in store.entailed_world(path).positives
        store.check_invariants()


class TestPropagationWritesOnlyTheDifference:
    """Alg. 4 re-derives a key's cell in every dependent world, and writes
    only the rows that change: counted on V, never timed."""

    def v_writes(self, store, since=(0, 0)) -> tuple[int, int]:
        """(V rows issued, V rows deleted) since the ``since`` reading."""
        table = store.v_table("Sightings")
        lineage = table.lineage
        deleted = lineage.purged + len(lineage.pending)
        return table.next_rowid - since[0], deleted - since[1]

    def test_counts(self, store, schema):
        for path in [(CAROL, BOB, ALICE), (CAROL, ALICE), (ALICE, BOB), (BOB,)]:
            id_world(store, path)
        before = self.v_writes(store)
        # Every world inherits a root insert: one row each, none deleted.
        assert insert_tuple(store, (), t(schema), POSITIVE)
        assert self.v_writes(store, before) == (store.world_count(), 0)

        # The same tuple, negated in Alice's world: her world and every one
        # below it lose the inherited positive and gain the negative.
        below_alice = len(store.dependents_by_depth(store.wid_for_path((ALICE,))))
        before = self.v_writes(store)
        assert insert_tuple(store, (ALICE,), t(schema), NEGATIVE)
        overridden = 1 + below_alice
        assert self.v_writes(store, before) == (overridden, overridden)

        # A negative of another value overrides nothing: the inherited
        # positive stays where it is in Bob's world and below.
        below_bob = len(store.dependents_by_depth(store.wid_for_path((BOB,))))
        before = self.v_writes(store)
        assert insert_tuple(store, (BOB,), t(schema, species="raven"), NEGATIVE)
        assert self.v_writes(store, before) == (1 + below_bob, 0)
        store.check_invariants()


class TestStatementWrappers:
    def test_insert_and_delete_statement(self, store, schema):
        stmt = positive([ALICE], t(schema))
        assert insert_statement(store, stmt)
        assert stmt in store.explicit_db
        assert delete_statement(store, stmt)
        assert stmt not in store.explicit_db
