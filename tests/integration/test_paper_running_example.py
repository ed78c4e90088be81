"""End-to-end replay of the paper's Sect. 2 narrative through BeliefSQL.

One test class per paper artifact: the i1-i8 insert script, the Fig. 2 belief
statements, the Fig. 4 Kripke structure, the Fig. 5 relational representation,
and the q1/q2 example queries — all through the public BDMS API.
"""

import pytest

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.core.statements import NEGATIVE, POSITIVE

INSERTS = [
    # i1: Carol reports her sighting (plain SQL insert).
    "insert into Sightings values ('s1','Carol','bald eagle','6-14-08','Lake Forest')",
    # i2/i3: Bob rejects both eagle readings of sighting s1.
    "insert into BELIEF 'Bob' not Sightings values ('s1','Carol','bald eagle','6-14-08','Lake Forest')",
    "insert into BELIEF 'Bob' not Sightings values ('s1','Carol','fish eagle','6-14-08','Lake Forest')",
    # i4/i5: Alice believes a crow and why.
    "insert into BELIEF 'Alice' Sightings values ('s2','Alice','crow','6-14-08','Lake Placid')",
    "insert into BELIEF 'Alice' Comments values ('c1','found feathers','s2')",
    # i6-i8: Bob's alternative and his explanation of Alice's mistake.
    "insert into BELIEF 'Bob' Sightings values ('s2','Alice','raven','6-14-08','Lake Placid')",
    "insert into BELIEF 'Bob' BELIEF 'Alice' Comments values ('c2','black feathers','s2')",
    "insert into BELIEF 'Bob' Comments values ('c2','purple black feathers','s2')",
]


@pytest.fixture(params=["engine", "sqlite"])
def db(request) -> BeliefDBMS:
    db = BeliefDBMS(sightings_schema(), backend=request.param)
    for name in ("Alice", "Bob", "Carol"):
        db.add_user(name)
    for sql in INSERTS:
        assert db.execute_sql(sql).ok
    return db


S1 = ("s1", "Carol", "bald eagle", "6-14-08", "Lake Forest")
S1F = ("s1", "Carol", "fish eagle", "6-14-08", "Lake Forest")
S2C = ("s2", "Alice", "crow", "6-14-08", "Lake Placid")
S2R = ("s2", "Alice", "raven", "6-14-08", "Lake Placid")


class TestEntailments:
    """The eight Fig. 2 statements and the Sect. 3.2 defaults."""

    def test_explicit_statements(self, db):
        assert db.annotation_count() == 8
        assert db.believes([], "Sightings", S1)
        assert db.believes(["Bob"], "Sightings", S1, sign=NEGATIVE)
        assert db.believes(["Bob"], "Sightings", S1F, sign=NEGATIVE)
        assert db.believes(["Alice"], "Sightings", S2C)
        assert db.believes(["Bob"], "Sightings", S2R)
        assert db.believes(["Bob", "Alice"], "Comments",
                           ("c2", "black feathers", "s2"))

    def test_message_board_defaults(self, db):
        # D |= Alice s1+ (default) and D |= Bob·Alice s1+ (Sect. 3.2).
        assert db.believes(["Alice"], "Sightings", S1)
        assert db.believes(["Bob", "Alice"], "Sightings", S1)
        assert db.believes(["Carol"], "Sightings", S1)
        # Bob himself does not believe it.
        assert not db.believes(["Bob"], "Sightings", S1)

    def test_unstated_negative(self, db):
        # Bob's raven makes Alice's crow impossible for him (Prop. 7).
        assert db.believes(["Bob"], "Sightings", S2C, sign=NEGATIVE)
        # And vice versa for Alice.
        assert db.believes(["Alice"], "Sightings", S2R, sign=NEGATIVE)

    def test_higher_order_does_not_leak_sideways(self, db):
        # Bob believes Alice believes "black feathers"; Carol does not get
        # a belief about Alice from Bob's annotation.
        assert not db.believes(["Carol", "Alice"], "Comments",
                               ("c2", "black feathers", "s2"))
        # But Carol does believe that Bob believes that Alice believes it.
        assert db.believes(["Carol", "Bob", "Alice"], "Comments",
                           ("c2", "black feathers", "s2"))


class TestKripkeStructure:
    def test_fig4(self, db):
        K = db.kripke()
        alice, bob, carol = db.uid("Alice"), db.uid("Bob"), db.uid("Carol")
        assert K.states == {(), (alice,), (bob,), (bob, alice)}
        assert K.edges[carol][()] == ()
        assert K.edges[alice][(bob,)] == (bob, alice)
        assert K.edges[bob][(bob, alice)] == (bob,)
        assert K.edge_count() == 9


class TestRelationalRepresentation:
    def test_fig5_v_sightings(self, db):
        rows = sorted(
            (w, k, s, e)
            for (w, t, k, s, e) in db.store.engine.table("v_Sightings")
        )
        widA = db.store.wid_for_path((db.uid("Alice"),))
        widB = db.store.wid_for_path((db.uid("Bob"),))
        widBA = db.store.wid_for_path((db.uid("Bob"), db.uid("Alice")))
        expected = sorted([
            (0, "s1", "+", "y"),
            (widA, "s1", "+", "n"), (widA, "s2", "+", "y"),
            (widB, "s1", "-", "y"), (widB, "s1", "-", "y"),
            (widB, "s2", "+", "y"),
            (widBA, "s1", "+", "n"), (widBA, "s2", "+", "n"),
        ])
        assert rows == expected

    def test_size_is_38_tuples(self, db):
        assert db.size() == 38

    def test_invariants(self, db):
        db.store.check_invariants()


class TestPaperQueries:
    def test_q1(self, db):
        rows = db.execute_sql(
            "select S.sid, S.uid, S.species from Users as U, "
            "BELIEF U.uid Sightings as S "
            "where U.name = 'Bob' and S.location = 'Lake Placid'"
        ).rows
        assert rows == [("s2", "Alice", "raven")]

    def test_q2(self, db):
        rows = db.execute_sql(
            "select U2.name, S1.species, S2.species "
            "from Users as U1, Users as U2, "
            "BELIEF U1.uid Sightings as S1, BELIEF U2.uid Sightings as S2 "
            "where U1.name = 'Alice' and S1.sid = S2.sid "
            "and S1.species <> S2.species"
        ).rows
        assert rows == [("Bob", "crow", "raven")]


class TestDoraJoins:
    def test_new_user_defaults(self, db):
        """Sect. 3.2: a fresh user believes everything on the message board."""
        db.add_user("Dora")
        assert db.believes(["Dora"], "Sightings", S1)
        assert db.believes(["Dora", "Alice"], "Sightings", S2C)
        assert db.believes(["Dora", "Bob"], "Sightings", S2R)
        # Dora can then disagree explicitly.
        db.insert(["Dora"], "Sightings", S1, sign="-")
        assert not db.believes(["Dora"], "Sightings", S1)
        assert db.believes(["Dora"], "Sightings", S1, sign=NEGATIVE)
        db.store.check_invariants()

    def test_i9_alternative(self, db):
        """Sect. 3.1's i9: Alice suggests the fish eagle for s1."""
        db.insert(["Alice"], "Sightings", S1F)
        assert db.believes(["Alice"], "Sightings", S1F)
        assert db.believes(["Alice"], "Sightings", S1, sign=NEGATIVE)
        # Bob disagrees with both alternatives (i2, i3 still stand).
        assert db.believes(["Bob"], "Sightings", S1F, sign=NEGATIVE)
        db.store.check_invariants()
