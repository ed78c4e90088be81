"""Row storage and hash indexes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DuplicateKeyError, SchemaError, UnknownColumnError
from repro.relational.schema import TableSchema
from repro.relational.table import Table


def make_table(auto_index: bool = True) -> Table:
    return Table(TableSchema("T", ("a", "b", "c")), auto_index=auto_index)


class TestSchema:
    def test_column_index(self):
        s = TableSchema("T", ("a", "b"))
        assert s.column_index("b") == 1
        with pytest.raises(UnknownColumnError):
            s.column_index("z")

    def test_key_columns_must_exist(self):
        with pytest.raises(SchemaError):
            TableSchema("T", ("a",), key=("z",))

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("T", ("a", "a"))

    def test_declared_index_columns_must_exist(self):
        with pytest.raises(SchemaError):
            TableSchema("T", ("a",), indexes=(("a", "z"),))

    def test_declared_indexes_are_built_with_the_table(self):
        schema = TableSchema("T", ("a", "b"), indexes=[["b", "a"], ["a"]])
        assert schema.indexes == (("b", "a"), ("a",))
        t = Table(schema, auto_index=False)
        assert t.has_index(("a", "b")) and t.has_index(("a",))


class TestRowidLineage:
    """What the sqlite mirror's delta sync reads off a table."""

    def test_rows_from_is_the_tail_by_rowid(self):
        t = make_table()
        t.insert_many([(i, i, i) for i in range(5)])
        t.delete_rowid(3)
        assert t.next_rowid == 5
        assert t.rows_from(2) == [(2, (2, 2, 2)), (4, (4, 4, 4))]
        assert t.rows_from(5) == []
        assert len(t.rows_from(0)) == 4
        assert t.missing_rowids(range(6)) == [3, 5]

    def test_forks_share_the_lineage_and_keep_their_rowids(self):
        t = make_table()
        t.insert_many([(0, 0, 0), (1, 1, 1)])
        fork = t.snapshot_fork()
        t.insert((2, 2, 2))  # copy-on-write: the fork keeps the old tail
        assert fork.lineage is t.lineage is not make_table().lineage
        assert (fork.next_rowid, t.next_rowid) == (2, 3)
        assert fork.rows_from(1) == [(1, (1, 1, 1))]
        assert t.snapshot_fork().rows_from(2) == [(2, (2, 2, 2))]


class TestCopyOnWrite:
    """The owner copies its rows on write for whoever still reads the old
    ones, and for nobody else."""

    def keyed(self) -> Table:
        t = Table(TableSchema("K", ("a", "b"), key=("a",)))
        t.insert_many([(i, i * i) for i in range(4)])
        return t

    def test_a_live_fork_keeps_what_it_saw(self):
        t = self.keyed()
        fork = t.snapshot_fork()
        before = id(t._rows)
        t.insert((9, 81))
        t.delete_matching({0: 1})
        assert id(t._rows) != before
        assert fork.rows() == [(i, i * i) for i in range(4)]
        assert list(fork.match_columns({0: 1})) == [(1, 1)]
        assert list(fork.match_columns({0: 9})) == []

    def test_nothing_is_copied_for_a_fork_that_is_gone(self):
        t = self.keyed()
        t.snapshot_fork()  # dropped at once, as an unpinned version is
        before = id(t._rows), id(t._key_values)
        t.insert((9, 81))
        assert (id(t._rows), id(t._key_values)) == before
        assert len(t) == 5 and list(t.match_columns({0: 9})) == [(9, 81)]
        held = t.snapshot_fork()  # and the next fork is a fork all the same
        t.insert((10, 100))
        assert id(t._rows) != before[0] and len(held) == 5

    def test_a_reader_that_outlives_its_fork_is_still_copied_for(self):
        t = self.keyed()
        fork = t.snapshot_fork()
        scan, probe = iter(fork), fork.prober((0,))
        assert next(scan) == (0, 0)
        del fork
        t.delete_matching({0: 2})
        t.insert((2, "new"))
        assert list(scan) == [(1, 1), (2, 4), (3, 9)]
        assert probe((2,)) == [(2, 4)]


class TestInsertDelete:
    def test_insert_and_len(self):
        t = make_table()
        t.insert((1, 2, 3))
        t.insert_many([(4, 5, 6), (7, 8, 9)])
        assert len(t) == 3
        assert set(t.rows()) == {(1, 2, 3), (4, 5, 6), (7, 8, 9)}

    def test_arity_enforced(self):
        t = make_table()
        with pytest.raises(ValueError):
            t.insert((1, 2))

    def test_unique_key_enforced(self):
        t = Table(TableSchema("T", ("a", "b"), key=("a",)))
        t.insert((1, "x"))
        with pytest.raises(DuplicateKeyError):
            t.insert((1, "y"))
        # Deleting frees the key.
        t.delete_where(lambda row: row[0] == 1)
        t.insert((1, "y"))

    def test_delete_matching(self):
        t = make_table()
        t.insert_many([(1, 2, 3), (1, 5, 6), (2, 2, 3)])
        assert t.delete_matching({0: 1}) == 2
        assert t.rows() == [(2, 2, 3)]

    def test_delete_where_predicate(self):
        t = make_table()
        t.insert_many([(i, i * 2, 0) for i in range(10)])
        assert t.delete_where(lambda r: r[1] >= 10) == 5
        assert len(t) == 5

    def test_clear(self):
        t = make_table()
        t.insert((1, 2, 3))
        t.create_index(("a",))
        t.clear()
        assert len(t) == 0
        assert list(t.match_named(a=1)) == []


class TestIndexes:
    def test_explicit_index_used(self):
        t = make_table(auto_index=False)
        t.insert_many([(i % 3, i, "x") for i in range(100)])
        t.create_index(("a",))
        assert t.has_index(("a",))
        rows = list(t.match_named(a=1))
        assert len(rows) == 34 or len(rows) == 33

    def test_index_maintained_on_delete(self):
        t = make_table(auto_index=False)
        t.create_index(("a",))
        rid = t.insert((1, 2, 3))
        t.insert((1, 9, 9))
        t.delete_rowid(rid)
        assert list(t.match_named(a=1)) == [(1, 9, 9)]

    def test_composite_index(self):
        t = make_table(auto_index=False)
        t.create_index(("a", "b"))
        t.insert_many([(1, 2, "x"), (1, 3, "y"), (2, 2, "z")])
        assert list(t.match_named(a=1, b=2)) == [(1, 2, "x")]

    def test_partial_index_with_residual_filter(self):
        t = make_table(auto_index=False)
        t.create_index(("a",))
        t.insert_many([(1, 2, "x"), (1, 3, "y")])
        assert list(t.match_named(a=1, b=3)) == [(1, 3, "y")]

    def test_auto_index_on_large_tables(self):
        t = make_table(auto_index=True)
        t.insert_many([(i % 5, i, "x") for i in range(200)])
        list(t.match_named(a=2))
        assert t.has_index(("a",))

    def test_a_covering_index_serves_the_probe_and_nothing_is_built(self):
        schema = TableSchema("T", ("k", "a", "b"), key=("k",), indexes=(("a",),))
        t = Table(schema)
        t.insert_many([(i, i % 5, i % 7) for i in range(200)])
        assert sorted(t.match_named(a=2, b=3)) == [
            (k, 2, 3) for k in (17, 52, 87, 122, 157, 192)
        ]
        assert list(t.match_named(k=17, b=3)) == [(17, 2, 3)]
        assert list(t.match_named(k=17, b=4)) == []
        assert not t.has_index(("a", "b")) and not t.has_index(("k", "b"))
        assert t.lineage.counters.builds == {"shared": 1, "private": 0}

    def test_the_owner_adopts_an_index_a_fork_had_to_build_for_itself(self):
        """One private build by the first fork that meets the pattern, one
        shared build at the owner's next fork, and none after that — not a
        pass over the table per version."""
        t = make_table()
        t.insert_many([(i % 5, i, "x") for i in range(200)])
        builds = t.lineage.counters.builds
        first = t.snapshot_fork()
        assert len(list(first.match_named(a=2))) == 40
        assert builds == {"shared": 0, "private": 1} and not t.has_index(("a",))
        gone = t.insert((2, 999, "later"))
        second = t.snapshot_fork()  # where no write can land: adopts (a)
        assert builds == {"shared": 1, "private": 1} and t.has_index(("a",))
        t.delete_rowid(gone)
        t.insert((2, 1000, "latest"))
        third = t.snapshot_fork()
        for fork, seen in ((first, 40), (second, 41), (third, 41), (t, 41)):
            assert len(list(fork.match_named(a=2))) == seen
        assert (2, 999, "later") in list(second.match_named(a=2))
        assert (2, 1000, "latest") in list(third.match_named(a=2))
        assert builds == {"shared": 1, "private": 1}
        # Forking a fork adopts nothing: only the owner's next fork does.
        nested = third.snapshot_fork()
        assert len(list(nested.match_named(c="x"))) == 200
        third.snapshot_fork()
        assert builds == {"shared": 1, "private": 2} and not t.has_index(("c",))
        t.snapshot_fork()
        assert builds == {"shared": 2, "private": 2} and t.has_index(("c",))

    def test_a_bucket_is_a_bare_rowid_until_a_second_row_shares_the_value(self):
        t = make_table(auto_index=False)
        t.create_index(("a",))
        first, second = t.insert((1, 2, 3)), t.insert((1, 9, 9))
        (index,) = t.lineage.indexes.values()
        assert index == {(1,): {first, second}}
        t.delete_rowid(first)
        assert index == {(1,): second}
        t.delete_rowid(second)
        assert index == {}

    def test_no_auto_index_below_threshold(self):
        t = make_table(auto_index=True)
        t.insert_many([(i, i, "x") for i in range(5)])
        list(t.match_named(a=2))
        assert not t.has_index(("a",))

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
            max_size=60,
        ),
        st.integers(0, 3),
        st.integers(0, 3),
    )
    def test_index_lookup_equals_scan(self, rows, a, b):
        indexed = make_table(auto_index=True)
        plain = make_table(auto_index=False)
        for row in rows:
            indexed.insert(row)
            plain.insert(row)
        bound = {0: a, 1: b}
        assert sorted(indexed.match_columns(bound)) == sorted(
            plain.match_columns(bound)
        )
        # The probe primitive: the same rows, in either column order.
        for table in (indexed, plain):
            assert sorted(table.prober((0, 1))((a, b))) == sorted(
                plain.match_columns(bound)
            )
            assert sorted(table.prober((1, 0))((b, a))) == sorted(
                plain.match_columns(bound)
            )

    def test_access_path_names_the_probe_policy_and_builds_nothing(self):
        schema = TableSchema("T", ("k", "a", "b"), key=("k",), indexes=(("a",),))
        t = Table(schema)
        t.insert_many([(i, i % 5, i % 7) for i in range(20)])
        assert t.access_path(()) == "scan"
        assert t.access_path((0,)) == "key"
        assert t.access_path((0, 2)) == "key+residual(b)"
        assert t.access_path((1, 2)) == "index(a)+residual(b)"
        assert t.access_path((2,)) == "scan"  # 20 rows: below the threshold
        t.insert_many([(i, i % 5, i % 7) for i in range(20, 40)])
        assert t.access_path((2,)) == "build(b)"  # what the first probe does
        assert not t.has_index(("b",))
        assert len(t.prober((2,))((3,))) == 6
        assert t.access_path((2,)) == "index(b)"

    def test_match_empty_binding_returns_all(self):
        t = make_table()
        t.insert_many([(1, 2, 3), (4, 5, 6)])
        assert len(list(t.match_columns({}))) == 2
