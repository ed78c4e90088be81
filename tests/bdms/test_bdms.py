"""The BDMS facade: users, DML, queries, backends, stats."""

import pytest

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.core.statements import NEGATIVE
from repro.errors import (
    BeliefDBError,
    RejectedUpdateError,
    UnknownUserError,
)


@pytest.fixture
def db() -> BeliefDBMS:
    db = BeliefDBMS(sightings_schema())
    db.add_user("Alice")
    db.add_user("Bob")
    db.add_user("Carol")
    return db


def seed_running_example(db: BeliefDBMS) -> None:
    for sql in [
        "insert into Sightings values ('s1','Carol','bald eagle','6-14-08','Lake Forest')",
        "insert into BELIEF 'Bob' not Sightings values ('s1','Carol','bald eagle','6-14-08','Lake Forest')",
        "insert into BELIEF 'Bob' not Sightings values ('s1','Carol','fish eagle','6-14-08','Lake Forest')",
        "insert into BELIEF 'Alice' Sightings values ('s2','Alice','crow','6-14-08','Lake Placid')",
        "insert into BELIEF 'Alice' Comments values ('c1','found feathers','s2')",
        "insert into BELIEF 'Bob' Sightings values ('s2','Alice','raven','6-14-08','Lake Placid')",
        "insert into BELIEF 'Bob' BELIEF 'Alice' Comments values ('c2','black feathers','s2')",
        "insert into BELIEF 'Bob' Comments values ('c2','purple-black feathers','s2')",
    ]:
        assert db.execute_sql(sql).ok


class TestUsers:
    def test_auto_ids(self, db):
        assert db.users() == {1: "Alice", 2: "Bob", 3: "Carol"}
        assert db.uid("Bob") == 2

    def test_unknown_user(self, db):
        with pytest.raises(UnknownUserError):
            db.uid("Nobody")
        with pytest.raises(UnknownUserError):
            db.insert(["Nobody"], "Comments", ("c1", "x", "s1"))

    def test_unknown_backend(self):
        with pytest.raises(BeliefDBError):
            BeliefDBMS(sightings_schema(), backend="oracle")


class TestDML:
    def test_programmatic_insert_and_believes(self, db):
        db.insert([], "Sightings", ("s1", 3, "crow", "d", "l"))
        assert db.believes([], "Sightings", ("s1", 3, "crow", "d", "l"))
        assert db.believes(["Alice"], "Sightings", ("s1", 3, "crow", "d", "l"))
        db.insert(["Bob"], "Sightings", ("s1", 3, "crow", "d", "l"), sign="-")
        assert db.believes(["Bob"], "Sightings", ("s1", 3, "crow", "d", "l"), sign="-")

    def test_strict_mode_raises_on_conflict(self, db):
        db.insert(["Alice"], "Sightings", ("s1", 3, "crow", "d", "l"))
        with pytest.raises(RejectedUpdateError):
            db.insert(["Alice"], "Sightings", ("s1", 3, "raven", "d", "l"))
        with pytest.raises(RejectedUpdateError):
            db.delete(["Bob"], "Sightings", ("s1", 3, "crow", "d", "l"))

    def test_non_strict_mode_returns_false(self):
        db = BeliefDBMS(sightings_schema(), strict=False)
        db.add_user("Alice")
        db.insert(["Alice"], "Sightings", ("s1", 3, "crow", "d", "l"))
        assert not db.insert(["Alice"], "Sightings", ("s1", 3, "raven", "d", "l"))
        assert not db.delete(["Alice"], "Sightings", ("s9", 3, "x", "d", "l"))

    def test_execute_delete_counts(self, db):
        seed_running_example(db)
        n = db.execute_sql("delete from BELIEF 'Bob' not Sightings where sid = 's1'").rowcount
        assert n == 2
        # Bob now inherits Carol's report again.
        assert db.believes(["Bob"], "Sightings",
                           ("s1", "Carol", "bald eagle", "6-14-08", "Lake Forest"))

    def test_execute_update_root(self, db):
        seed_running_example(db)
        n = db.execute_sql("update Sightings set species = 'fish eagle' where sid = 's1'").rowcount
        assert n == 1
        assert db.believes([], "Sightings",
                           ("s1", "Carol", "fish eagle", "6-14-08", "Lake Forest"))
        # Bob's i3 ensures he still disagrees after the update (Sect. 2).
        assert db.believes(["Bob"], "Sightings",
                           ("s1", "Carol", "fish eagle", "6-14-08", "Lake Forest"),
                           sign=NEGATIVE)

    def test_update_on_belief_world(self, db):
        seed_running_example(db)
        n = db.execute_sql(
            "update BELIEF 'Alice' Sightings set species = 'osprey' "
            "where sid = 's2'"
        ).rowcount
        assert n == 1
        assert db.believes(["Alice"], "Sightings",
                           ("s2", "Alice", "osprey", "6-14-08", "Lake Placid"))

    def test_update_of_inherited_default_becomes_explicit(self, db):
        seed_running_example(db)
        # Carol holds s1 only by default; updating her view makes it explicit.
        n = db.execute_sql(
            "update BELIEF 'Carol' Sightings set species = 'osprey' "
            "where sid = 's1'"
        ).rowcount
        assert n == 1
        assert db.believes(["Carol"], "Sightings",
                           ("s1", "Carol", "osprey", "6-14-08", "Lake Forest"))
        # The root is untouched.
        assert db.believes([], "Sightings",
                           ("s1", "Carol", "bald eagle", "6-14-08", "Lake Forest"))

    def test_noop_update_counts_zero(self, db):
        seed_running_example(db)
        n = db.execute_sql(
            "update Sightings set species = 'bald eagle' where sid = 's1'"
        ).rowcount
        assert n == 0


class TestQueries:
    def test_paper_q1(self, db):
        seed_running_example(db)
        rows = db.execute_sql(
            "select S.sid, S.uid, S.species from Users as U, "
            "BELIEF U.uid Sightings as S "
            "where U.name = 'Bob' and S.location = 'Lake Placid'"
        ).rows
        assert rows == [("s2", "Alice", "raven")]

    def test_paper_q2(self, db):
        seed_running_example(db)
        rows = db.execute_sql(
            "select U2.name, S1.species, S2.species "
            "from Users as U1, Users as U2, "
            "BELIEF U1.uid Sightings as S1, BELIEF U2.uid Sightings as S2 "
            "where U1.name = 'Alice' and S1.sid = S2.sid "
            "and S1.species <> S2.species"
        ).rows
        assert rows == [("Bob", "crow", "raven")]

    def test_textual_bcq(self, db):
        seed_running_example(db)
        assert db.query("q(sp) :- ['Bob'] Sightings+(k, z, sp, u, v)") == {
            ("raven",)
        }

    def test_provably_empty_select(self, db):
        seed_running_example(db)
        rows = db.execute_sql(
            "select S.sid from Sightings as S "
            "where S.species = 'a' and S.species = 'b'"
        ).rows
        assert rows == []

    @pytest.mark.parametrize("backend", ["engine", "sqlite", "naive", "lazy"])
    def test_backends_agree(self, backend):
        db = BeliefDBMS(sightings_schema(), backend=backend)
        for name in ("Alice", "Bob", "Carol"):
            db.add_user(name)
        seed_running_example(db)
        rows = db.execute_sql(
            "select S.sid, S.species from BELIEF 'Bob' not Sightings as S, "
            "Sightings as G where G.sid = S.sid and G.uid = S.uid "
            "and G.species = S.species and G.date = S.date "
            "and G.location = S.location"
        ).rows
        assert rows == [("s1", "bald eagle")]

    def test_sqlite_mirror_resyncs_after_updates(self):
        db = BeliefDBMS(sightings_schema(), backend="sqlite")
        db.add_user("Alice")
        db.insert([], "Sightings", ("s1", 1, "crow", "d", "l"))
        q = "q(sp) :- ['Alice'] Sightings+(k, z, sp, u, v)"
        assert db.query(q) == {("crow",)}
        db.insert([], "Sightings", ("s2", 1, "raven", "d", "l"))
        assert db.query(q) == {("crow",), ("raven",)}

    def test_lazy_bdms_forces_lazy_backend(self):
        db = BeliefDBMS(sightings_schema(), eager=False, backend="engine")
        assert db.backend == "lazy"
        db.add_user("Alice")
        db.insert([], "Sightings", ("s1", 1, "crow", "d", "l"))
        assert db.query("q(sp) :- ['Alice'] Sightings+(k, z, sp, u, v)") == {
            ("crow",)
        }


class TestViewsAndStats:
    def test_world_and_kripke(self, db, example):
        seed_running_example(db)
        w = db.world(["Bob"])
        assert len(w.positives) == 2 and len(w.negatives) == 2
        K = db.kripke()
        assert K.state_count() == 4

    def test_stats(self, db):
        seed_running_example(db)
        assert db.annotation_count() == 8
        assert db.size() == 38
        assert db.relative_overhead() == pytest.approx(38 / 8)
        text = db.describe()
        assert "worlds: 4" in text

    def test_belief_database_snapshot(self, db):
        seed_running_example(db)
        snapshot = db.belief_database()
        assert len(snapshot) == 8
        assert snapshot.is_consistent()
