"""One-column unique keys are stored, and probed, by the bare value.

A table's unique-key dict maps a one-column key's value itself to its
rowid, as a one-column index does; only a wider key (the ``lifecycle``
relation's ``(wid, tid, s)``) is a tuple. Every probe that reads the dict
— ``Table.prober``, a compiled rule's ``key`` step and a negated atom's key
probe — must answer on every fork exactly as a scan of that fork's own
rows, however the owner has moved on since.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.relational.datalog import (
    ANY,
    Atom,
    NegatedAtom,
    Rule,
    Var,
    evaluate_rule,
)
from repro.relational.schema import TableSchema
from repro.relational.table import Table
from repro.storage.internal_schema import (
    D_TABLE,
    LIFECYCLE_TABLE,
    S_TABLE,
    U_TABLE,
    star_table_name,
)
from tests.strategies import budget

KEYED = TableSchema("K", ("k", "a"), key=("k",), indexes=(("a",),))
#: Q(x) holds every key a probe asks for.
PROBES = TableSchema("Q", ("x",))
#: Mixed types: the dict's keys are the values themselves.
KEYS = [0, 1, 2, 3, "a", "b", 1.5]
X, A = Var("x"), Var("a")
#: A ``key`` step on a variable the scan of Q binds.
JOIN = Rule(Atom("q", (X, A)), [Atom("Q", (X,)), Atom("K", (X, A))])
#: A negated atom whose bound columns are exactly the key.
ABSENT = Rule(
    Atom("q", (X,)), [Atom("Q", (X,))], (), (NegatedAtom(Atom("K", (X, ANY))),)
)

key = st.sampled_from(KEYS)
op = st.one_of(
    st.tuples(st.just("insert"), key, st.integers(0, 2)),
    st.tuples(st.just("delete"), key, st.booleans()),  # bare or 1-tuple key
    st.tuples(st.just("delete_keys"), st.lists(key, unique=True, max_size=3)),
    st.tuples(st.just("fork")),
    st.tuples(st.just("release"), st.integers(0, 4)),
)


def _probes() -> Table:
    q = Table(PROBES)
    q.insert_many((k,) for k in KEYS)
    return q


def _apply(owner: Table, model: dict, kind: str, args: tuple) -> None:
    if kind == "insert":
        k, a = args
        if k not in model:
            owner.insert((k, a))
            model[k] = (k, a)
    elif kind == "delete":
        k, as_tuple = args
        if k in model:
            assert owner.delete_key((k,) if as_tuple else k) == model.pop(k)
    elif kind == "delete_keys":
        held = [k for k in args[0] if k in model]
        # Half as 1-tuples, half bare: both spellings name the one row.
        keys = [(k,) for k in held[::2]] + held[1::2]
        assert owner.delete_keys(keys) == len(held)
        for k in held:
            del model[k]


def _assert_probes_equal_scan(table: Table, model: dict, q: Table) -> None:
    """The three probes of the key dict against ``model``, ``table``'s rows."""
    assert sorted(table.rows(), key=repr) == sorted(model.values(), key=repr)
    by_key, by_both = table.prober((0,)), table.prober((1, 0))
    tables = {"K": table, "Q": q}
    for k in KEYS:
        row = model.get(k)
        assert list(by_key((k,))) == ([row] if row else [])
        for a in range(3):
            hit = row is not None and row[1] == a
            assert list(by_both((a, k))) == ([row] if hit else [])
        # A compiled ``key`` step on a constant: the plan's only step.
        step = Rule(Atom("q", (A,)), [Atom("K", (k, A))])
        assert evaluate_rule(tables, step) == ({(row[1],)} if row else set())
    assert evaluate_rule(tables, JOIN) == set(model.values())
    assert evaluate_rule(tables, ABSENT) == {(k,) for k in KEYS if k not in model}


def test_each_probe_reads_the_key_dict():
    """The probes the property checks are all ``key`` accesses."""
    t = Table(KEYED)
    assert t.access((0,)).kind == "key" and t.access((1, 0)).kind == "key"
    q = Table(PROBES)
    q.insert((1,))
    trace: list[str] = []
    evaluate_rule({"K": t, "Q": q}, ABSENT, trace)
    evaluate_rule({"K": t, "Q": q}, JOIN, trace)
    evaluate_rule({"K": t}, Rule(Atom("q", (A,)), [Atom("K", (1, A))]), trace)
    assert [line.split(" -> ")[-1] for line in trace] == [
        "not K[k] key",
        "K[k] key (0 rows)",
        "q: K[k] key (0 rows)",
    ], trace


@budget(100)
@given(ops=st.lists(op, max_size=25))
def test_every_fork_probes_its_keys_like_a_scan_of_its_own_rows(ops):
    owner, model, q = Table(KEYED), {}, _probes()
    forks: list[tuple[Table, dict]] = []
    for kind, *args in ops:
        if kind == "fork":
            forks.append((owner.snapshot_fork(), dict(model)))
        elif kind == "release":
            if forks:
                del forks[args[0] % len(forks)]
        else:
            _apply(owner, model, kind, tuple(args))
        for table, rows in [(owner, model), *forks]:
            _assert_probes_equal_scan(table, rows, q)
    assert owner._key_values == {k: rowid for rowid, (k, _) in owner.items()}


def test_one_column_keys_are_bare_values_and_lifecycle_keys_tuples():
    db = BeliefDBMS(sightings_schema())
    db.add_user("Carol")
    t = ("s1", "Carol", "crow", "d", "l")
    db.insert(["Carol"], "Sightings", t)
    db.lifecycle_propose(["Carol"], "Sightings", t)
    engine = db.store.engine
    for name in (star_table_name("Sightings"), D_TABLE, S_TABLE, U_TABLE):
        table = engine.table(name)
        (position,) = table.schema.key_indexes
        assert table._key_values == {
            row[position]: rowid for rowid, row in table.items()
        }, name
        assert table._key_values and all(
            type(k) is int for k in table._key_values
        ), name
    lifecycle = engine.table(LIFECYCLE_TABLE)
    assert lifecycle._key_values == {
        row[:3]: rowid for rowid, row in lifecycle.items()
    }
    assert lifecycle._key_values and all(
        type(k) is tuple and len(k) == 3 for k in lifecycle._key_values
    )
