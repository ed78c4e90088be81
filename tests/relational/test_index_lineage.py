"""Lineage-owned indexes against a brute-force scan.

A table and its forks probe one index set; each fork must answer every
bound-column pattern exactly as a scan of its own frozen rows would, however
the owner's rows have moved on, and the shared buckets must not keep dead
rowids once no fork can reach them.
"""

from __future__ import annotations

from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DuplicateKeyError
from repro.relational import table as table_module
from repro.relational.database import RelationalDatabase
from repro.relational.schema import TableSchema
from repro.relational.table import Table

KEYED = TableSchema(
    "K", ("k", "a", "b"), key=("k",), indexes=(("a", "b"), ("a",))
)
PLAIN = TableSchema("P", ("k", "a", "b"))
PATTERNS = [c for n in (1, 2, 3) for c in combinations(range(3), n)]

value = st.integers(0, 3)
row = st.tuples(st.integers(0, 7), value, value)
slot = st.integers(0, 5)
op = st.one_of(
    st.tuples(st.just("insert"), row),
    st.tuples(st.just("update"), row),  # delete by key, insert the key again
    st.tuples(st.just("delete"), st.sampled_from(PATTERNS), row),
    st.tuples(st.just("fork")),
    st.tuples(st.just("fork_fork"), slot),
    st.tuples(st.just("release"), slot),
    st.tuples(st.just("write_fork"), slot, row),
)


def scan(model: dict[int, tuple], bound: dict[int, object]) -> list[tuple]:
    return sorted(
        item for item in model.items()
        if all(item[1][i] == v for i, v in bound.items())
    )


def assert_probes_equal_scan(table: Table, model: dict[int, tuple], probe: tuple):
    """Every pattern, bound to ``probe`` and to each row the table holds."""
    assert dict(table.items()) == model
    for values in {probe, *model.values()}:
        for pattern in PATTERNS:
            bound = {i: values[i] for i in pattern}
            expected = scan(model, bound)
            assert sorted(table.match_rowids(bound)) == [r for r, _ in expected]
            assert sorted(table.match_columns(bound)) == sorted(
                r for _, r in expected
            )


def from_scratch(model: dict[int, tuple], positions: tuple[int, ...]) -> dict:
    index: dict[tuple, set[int]] = {}
    for rowid, r in model.items():
        index.setdefault(tuple(r[i] for i in positions), set()).add(rowid)
    return {
        vals: next(iter(rowids)) if len(rowids) == 1 else rowids
        for vals, rowids in index.items()
    }


def apply(table: Table, model: dict[int, tuple], kind: str, args: tuple) -> None:
    if kind in ("insert", "write_fork"):
        try:
            model[table.insert(args[-1])] = args[-1]
        except DuplicateKeyError:
            pass
    elif kind == "update":
        new = args[0]
        for rowid in list(table.match_rowids({0: new[0]})):
            table.delete_rowid(rowid)
            del model[rowid]
        model[table.insert(new)] = new
    elif kind == "delete":
        pattern, probe = args
        bound = {i: probe[i] for i in pattern}
        doomed = [rid for rid, _ in scan(model, bound)]
        assert table.delete_matching(bound) == len(doomed)
        for rowid in doomed:
            del model[rowid]


def step(owner, model, forks, probe, kind, args) -> None:
    """One op, then every live table against its model. A function of its
    own so that no local keeps a released fork alive."""
    if kind == "fork":
        forks.append((owner.snapshot_fork(), dict(model)))
    elif kind == "fork_fork" and forks:
        parent, frozen = forks[args[0] % len(forks)]
        forks.append((parent.snapshot_fork(), dict(frozen)))
    elif kind == "release" and forks:
        del forks[args[0] % len(forks)]
    elif kind == "write_fork" and forks:
        apply(*forks[args[0] % len(forks)], kind, args)
    else:
        apply(owner, model, kind, args)
    for table, rows in [(owner, model), *forks]:
        assert_probes_equal_scan(table, rows, probe)


@pytest.mark.parametrize("schema", [KEYED, PLAIN], ids=["keyed", "plain"])
@given(ops=st.lists(op, max_size=30), probe=row)
def test_every_fork_probes_like_a_scan_of_its_own_rows(schema, ops, probe):
    # Threshold 0: the auto-index paths run on these small tables too.
    with mock.patch.object(table_module, "_AUTO_INDEX_MIN_ROWS", 0):
        owner, model = Table(schema), {}
        forks: list[tuple[Table, dict[int, tuple]]] = []
        for kind, *args in ops:
            step(owner, model, forks, probe, kind, tuple(args))

        # Bounded growth: with every fork gone, the owner's next fork purges
        # all deferred removals and its indexes are what a build would give.
        forks.clear()
        owner.snapshot_fork()
        lineage = owner.lineage
        assert not lineage.pending and not lineage.forks
        for positions, index in lineage.indexes.items():
            assert index == from_scratch(model, positions), positions


def test_fork_held_across_delete_and_reinsert_of_the_same_key():
    t = Table(KEYED)
    old = t.insert((1, 2, 3))
    held = t.snapshot_fork()
    t.delete_rowid(old)
    new = t.insert((1, 2, 3))
    later = t.snapshot_fork()
    for bound in ({0: 1}, {1: 2}, {1: 2, 2: 3}, {0: 1, 2: 3}):
        assert list(held.match_rowids(bound)) == [old]
        assert list(later.match_rowids(bound)) == [new]
        assert list(t.match_rowids(bound)) == [new]
    assert list(t.lineage.pending) == [(old, (1, 2, 3))]  # held reaches it
    del held
    t.delete_rowid(new)  # purges `old`; `later` was taken before this delete
    assert list(t.lineage.pending) == [(new, (1, 2, 3))]
    assert list(later.match_rowids({1: 2})) == [new]
    assert list(t.match_rowids({1: 2})) == []
    del later
    t.snapshot_fork()
    assert not t.lineage.pending
    assert all(not index for index in t.lineage.indexes.values())


def test_index_built_after_a_delete_still_serves_the_older_fork():
    with mock.patch.object(table_module, "_AUTO_INDEX_MIN_ROWS", 0):
        t = Table(PLAIN)
        gone = t.insert((1, 2, 3))
        held = t.snapshot_fork()
        t.delete_rowid(gone)
        assert list(t.match_rowids({2: 3})) == []  # the owner builds (b) now
        assert t.has_index(("b",))
        assert list(held.match_rowids({2: 3})) == [gone]


def test_a_fork_builds_privately_and_a_written_fork_leaves_the_lineage():
    db = RelationalDatabase()
    t = db.create_table(PLAIN)
    t.insert_many([(i, i % 3, i % 5) for i in range(40)])
    fork = db.snapshot_fork().table("P")
    assert len(list(fork.match_rowids({1: 2}))) == 13
    assert db.index_stats()["builds_private"] == 1
    assert not t.has_index(("a",)) and fork.has_index(("a",))

    rowid = fork.insert((99, 2, 2))  # detaches: same rowid the owner issues next
    assert rowid == t.insert((7, 7, 7))
    assert fork.lineage is not t.lineage and not t.lineage.forks
    assert (99, 2, 2) in list(fork.match_columns({1: 2}))
    assert list(t.match_columns({0: 99})) == []
    assert list(fork.match_columns({0: 7, 1: 7})) == []
