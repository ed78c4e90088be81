"""SQLite mirroring and execution."""

import pytest

from repro.relational.database import RelationalDatabase
from repro.relational.schema import TableSchema
from repro.relational.sqlite_backend import (
    SqliteMirror,
    SyncReport,
    quote_identifier,
)
from tests.relational.mirror_helpers import mirror_indexes, mirror_tables


@pytest.fixture
def db() -> RelationalDatabase:
    db = RelationalDatabase()
    t = db.create_table(
        TableSchema("people", ("id", "name"), key=("id",), indexes=(("name",),))
    )
    t.insert_many([(1, "ann"), (2, "bob")])
    pets = db.create_table(TableSchema("pets", ("owner", "pet")))
    pets.insert_many([(1, "cat"), (2, "dog"), (1, "axolotl")])
    return db


class TestQuoting:
    def test_quote_identifier(self):
        assert quote_identifier("simple") == '"simple"'
        assert quote_identifier('we"ird') == '"we""ird"'


class TestMirror:
    def test_sync_and_query(self, db):
        with SqliteMirror() as m:
            m.sync(db)
            rows = m.execute('SELECT "name" FROM "people" ORDER BY "id"')
            assert rows == [("ann",), ("bob",)]

    def test_join_across_tables(self, db):
        with SqliteMirror() as m:
            m.sync(db)
            rows = m.execute(
                'SELECT p."name", x."pet" FROM "people" p '
                'JOIN "pets" x ON x."owner" = p."id" ORDER BY 1, 2'
            )
            assert rows == [("ann", "axolotl"), ("ann", "cat"), ("bob", "dog")]

    def test_positional_and_named_params(self, db):
        with SqliteMirror() as m:
            m.sync(db)
            assert m.execute(
                'SELECT "id" FROM "people" WHERE "name" = ?', ("bob",)
            ) == [(2,)]
            assert m.execute(
                'SELECT "id" FROM "people" WHERE "name" = :n', {"n": "ann"}
            ) == [(1,)]

    def test_resync_replaces_content(self, db):
        with SqliteMirror() as m:
            m.sync(db)
            db.table("people").insert((3, "cay"))
            m.sync(db)
            assert len(m.execute('SELECT * FROM "people"')) == 3

    def test_declared_indexes_mirrored(self, db):
        # Enough rows that the analyzed planner prefers the index to a scan.
        db.table("people").insert_many((i, f"p{i}") for i in range(10, 200))
        with SqliteMirror() as m:
            m.sync(db)
            plan = "\n".join(
                m.explain('SELECT * FROM "people" WHERE "name" = ?', ("x",))
            )
            assert "USING INDEX" in plan.upper() or "SEARCH" in plan.upper()

    def test_indexes_come_from_the_schema_not_the_built_hash_indexes(self, db):
        """A copy-on-write fork has built no hash index, and an ad-hoc one
        on the source is not part of the schema: the mirror's index set is
        the declared one either way."""
        db.table("pets").create_index(("owner",))
        with SqliteMirror() as live, SqliteMirror() as forked:
            live.sync(db)
            forked.sync(db.snapshot_fork())
            expected = {"people": [("id",), ("name",)], "pets": []}
            assert mirror_indexes(live) == mirror_indexes(forked) == expected

    def test_failed_sync_rolls_back_to_the_last_synced_state(self, db):
        with SqliteMirror() as m:
            m.sync(db)
            db.table("pets").insert((3, "eel"))
            db.table("people").insert((3, 2**70))  # sqlite cannot hold it
            with pytest.raises(OverflowError):
                m.sync(db)
            assert mirror_tables(m) == {
                "people": [(0, 1, "ann"), (1, 2, "bob")],
                "pets": [(0, 1, "cat"), (1, 2, "dog"), (2, 1, "axolotl")],
            }
            db.table("people").delete_matching({0: 3})
            assert m.sync(db) == SyncReport("delta", {"pets": 1})

    def test_non_primitive_values_stringified(self):
        db = RelationalDatabase()
        t = db.create_table(TableSchema("t", ("a",)))
        t.insert(((1, 2),))  # a tuple value
        with SqliteMirror() as m:
            m.sync(db)
            assert m.execute('SELECT "a" FROM "t"') == [("(1, 2)",)]


class TestDeltaSync:
    """``sync`` advances the mirror by the rows that changed, keyed by the
    engine's rowids, and falls back to the empty base on a new lineage."""

    def test_first_sync_is_a_full_build_of_every_table(self, db):
        with SqliteMirror() as m:
            assert m.sync(db) == SyncReport("full", {"people": 2, "pets": 3})

    def test_unchanged_source_is_an_empty_delta(self, db):
        with SqliteMirror() as m:
            m.sync(db)
            assert m.sync(db) == SyncReport("delta", {})
            assert m.sync(db.snapshot_fork()) == SyncReport("delta", {})

    def test_delta_touches_only_changed_tables(self, db):
        with SqliteMirror() as m:
            m.sync(db)
            db.table("pets").insert((2, "eel"))
            report = m.sync(db)
            assert report == SyncReport("delta", {"pets": 1})
            assert report.rows == 1
            assert mirror_tables(m)["pets"][-1] == (3, 2, "eel")

    def test_rows_carry_engine_rowids_and_deletes_go_by_rowid(self, db):
        pets = db.table("pets")
        with SqliteMirror() as m:
            m.sync(db)
            pets.delete_matching({1: "dog"})  # rowid 1
            pets.insert((2, "dog"))  # same content, new rowid 3
            assert m.sync(db) == SyncReport("delta", {"pets": 2})
            assert mirror_tables(m)["pets"] == [(r, *row) for r, row in pets.items()]

    def test_equal_inserts_and_deletes_are_still_seen(self, db):
        """Row count unchanged, content changed: the tail by rowid finds
        the insert, and count arithmetic then demands a delete."""
        people = db.table("people")
        with SqliteMirror() as m:
            m.sync(db)
            people.delete_matching({0: 2})
            people.insert((2, "bea"))  # the unique key is reused
            assert m.sync(db) == SyncReport("delta", {"people": 2})
            assert m.execute('SELECT "name" FROM "people" ORDER BY "id"') == [
                ("ann",), ("bea",),
            ]

    def test_clear_is_a_delta_of_deletes(self, db):
        with SqliteMirror() as m:
            m.sync(db)
            db.table("pets").clear()
            assert m.sync(db) == SyncReport("delta", {"pets": 3})
            assert mirror_tables(m)["pets"] == []

    def test_new_lineage_rebuilds_from_the_empty_base(self, db):
        other = RelationalDatabase()
        t = other.create_table(TableSchema("people", ("id", "name"), key=("id",)))
        t.insert((9, "zed"))  # rowid 0 again, different row
        with SqliteMirror() as m:
            m.sync(db)
            assert m.sync(other) == SyncReport("full", {"people": 1})
            assert mirror_tables(m) == {"people": [(0, 9, "zed")]}
            assert mirror_indexes(m) == {"people": [("id",)]}

    def test_user_column_named_rowid_does_not_shadow_the_engine_rowid(self):
        db = RelationalDatabase()
        t = db.create_table(TableSchema("t", ("RowID", "v")))
        t.insert_many([(70, "a"), (80, "b")])
        with SqliteMirror() as m:
            m.sync(db)
            t.delete_matching({0: 70})
            m.sync(db)
            assert m.execute('SELECT _rowid_, "RowID", "v" FROM "t"') == [
                (1, 80, "b")
            ]

    def test_analyze_runs_on_a_full_build_and_when_rows_have_doubled(self, db):
        def pets_stat() -> str:
            return m.execute("SELECT stat FROM sqlite_stat1 WHERE tbl = 'pets'")[0][0]

        pets = db.table("pets")
        with SqliteMirror() as m:
            m.sync(db)  # 5 rows in all
            assert pets_stat() == "3"
            pets.insert_many((i, "ant") for i in range(4))  # 9 rows: not yet
            m.sync(db)
            assert pets_stat() == "3"
            pets.insert((9, "bee"))  # 10 rows: doubled
            m.sync(db)
            assert pets_stat() == "8"
