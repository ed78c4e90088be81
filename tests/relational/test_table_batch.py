"""Batched writes against the same writes made one row at a time.

``insert_many`` / ``delete_rowids`` must leave a table exactly as the same
rows passed one by one to ``insert`` / ``delete_rowid`` would: the same rows
under the same rowids, the same unique-key dict, the same index buckets and
deferred removals, the same probe answers. A fork taken before a batch must
answer as a scan of what it saw, both while the owner still defers the
batch's removals for it and after the owner's next purge.
"""

from __future__ import annotations

from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DuplicateKeyError
from repro.relational import table as table_module
from repro.relational.schema import TableSchema
from repro.relational.table import Table
from tests.strategies import budget

KEYED = TableSchema(
    "K", ("k", "a", "b"), key=("k",), indexes=(("a", "b"), ("a",))
)
INDEXED = TableSchema("I", ("k", "a", "b"), indexes=(("a",), ("k", "b")))
PLAIN = TableSchema("P", ("k", "a", "b"))
PATTERNS = [c for n in (1, 2, 3) for c in combinations(range(3), n)]

row = st.tuples(st.integers(0, 7), st.integers(0, 3), st.integers(0, 3))
op = st.one_of(
    st.tuples(st.just("insert"), st.lists(row, max_size=6)),
    # a batch with one row of the wrong arity: must land nothing
    st.tuples(st.just("insert_short"), st.lists(row, max_size=3)),
    # positions among the rowids held, taken modulo their count
    st.tuples(st.just("delete"), st.lists(st.integers(0, 63), max_size=6)),
    st.tuples(st.just("fork")),
    st.tuples(st.just("release"), st.integers(0, 5)),
)


def scan(model: dict[int, tuple], bound: dict[int, object]) -> list[int]:
    return sorted(
        rowid for rowid, r in model.items()
        if all(r[i] == v for i, v in bound.items())
    )


def assert_probes_like_a_scan(table: Table, model: dict[int, tuple]) -> None:
    assert dict(table.items()) == model
    for values in {(0, 0, 0), *model.values()}:
        for pattern in PATTERNS:
            bound = {i: values[i] for i in pattern}
            assert sorted(table.match_rowids(bound)) == scan(model, bound)


def assert_same_table(batched: Table, single: Table) -> None:
    assert list(batched.items()) == list(single.items())
    assert batched.next_rowid == single.next_rowid
    assert batched._key_values == single._key_values
    assert batched.lineage.indexes == single.lineage.indexes
    assert list(batched.lineage.pending) == list(single.lineage.pending)
    assert batched.lineage.purged == single.lineage.purged


def lands(schema: TableSchema, model: dict[int, tuple], rows: list) -> bool:
    """Would ``rows`` be accepted as one batch?"""
    if any(len(r) != schema.arity for r in rows):
        return False
    if not schema.key:
        return True
    keys = [r[0] for r in rows]
    return len(set(keys)) == len(keys) and not {
        r[0] for r in model.values()
    } & set(keys)


def step(batched, single, model, forks, kind, args, schema) -> None:
    """One op on both tables. A function of its own so that no local
    keeps a released fork alive."""
    if kind in ("insert", "insert_short"):
        rows = list(args[0]) + ([(9,)] if kind == "insert_short" else [])
        if lands(schema, model, rows):
            batched.insert_many(rows)
            for r in rows:
                model[single.insert(r)] = r
        else:
            with pytest.raises((DuplicateKeyError, ValueError)):
                batched.insert_many(rows)
    elif kind == "delete":
        held = list(model)
        picks = [held[i % len(held)] for i in args[0]] if held else []
        doomed = list(dict.fromkeys(picks))
        assert batched.delete_rowids(doomed) == len(doomed)
        for rowid in doomed:
            single.delete_rowid(rowid)
            del model[rowid]
    elif kind == "fork":
        forks.append(
            (batched.snapshot_fork(), single.snapshot_fork(), dict(model))
        )
    elif kind == "release" and forks:
        del forks[args[0] % len(forks)]


@pytest.mark.parametrize(
    "schema", [KEYED, INDEXED, PLAIN], ids=["keyed", "indexed", "plain"]
)
@given(ops=st.lists(op, max_size=25))
@budget(60)
def test_batched_writes_equal_row_at_a_time_writes(schema, ops):
    # Threshold 0: the auto-index paths run on these small tables too.
    with mock.patch.object(table_module, "_AUTO_INDEX_MIN_ROWS", 0):
        batched, single, model = Table(schema), Table(schema), {}
        forks: list[tuple[Table, Table, dict[int, tuple]]] = []
        for kind, *args in ops:
            step(batched, single, model, forks, kind, tuple(args), schema)
            assert_same_table(batched, single)
            assert_probes_like_a_scan(batched, model)
            assert_probes_like_a_scan(single, model)
            for fork_b, fork_s, seen in forks:
                assert_probes_like_a_scan(fork_b, seen)
                assert_probes_like_a_scan(fork_s, seen)
        assert_same_table(batched, single)


def test_a_fork_taken_before_a_batch_delete_survives_the_purge():
    t = Table(KEYED)
    t.insert_many([(k, k % 2, k % 3) for k in range(6)])
    held = t.snapshot_fork()
    gone = [rowid for rowid, r in t.items() if r[1] == 1]
    assert t.delete_rowids(gone) == 3
    # The owner defers the removals for the fork: it still finds the rows.
    assert sorted(held.match_rowids({1: 1})) == gone
    assert len(t.lineage.pending) == 3
    later = t.snapshot_fork()
    del held
    t.delete_rowids([0])  # the owner's next purge: `held` no longer reaches
    assert [rowid for rowid, _ in t.lineage.pending] == [0]
    assert list(later.match_rowids({1: 1})) == []
    assert list(later.match_rowids({0: 0})) == [0]
    assert list(t.match_rowids({0: 0})) == []


def test_a_batch_stores_each_rowid_once():
    """The key dict and every bucket hold the very ``int`` that keys
    ``_rows`` (past CPython's small-int cache an ``int`` per index would
    cost an m = 100 store 18% more memory)."""
    t = Table(KEYED)
    t.insert_many([(k, k % 4, k % 3) for k in range(600)])
    same = {rowid: id(rowid) for rowid in t._rows}
    named = list(t._key_values.values())
    for positions, index in t.lineage.indexes.items():
        levels = index.values() if len(positions) > 1 else (index,)
        for bucket in (bucket for level in levels for bucket in level.values()):
            named.extend((bucket,) if type(bucket) is int else bucket)
    assert len(named) == 3 * len(same)
    assert all(id(rowid) == same[rowid] for rowid in named)
