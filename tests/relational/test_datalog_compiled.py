"""The compiled Datalog evaluator against a cartesian-product reference.

``relational/datalog.py`` compiles each rule *shape* (the rule minus its
constants) once per catalog (the keys and indexes of the tables it reads)
into a function of nested loops that read those keys and indexes inline,
and keeps the plans in one bounded cache. This suite checks the compiled
answers against the obviously-correct evaluator below on generated tables
and rules — and ``unfold``'s rewritten programs against the programs as
listed — and pins what the plan cache promises: constants do not recompile,
another catalog does, the cache is bounded, a plan is right on any fork of
the tables, threads may share it, and a malformed rule is rejected before
any row is read.
"""

from __future__ import annotations

import itertools
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DuplicateKeyError, EngineError, UnknownTableError
from repro.relational import datalog, table as table_module
from repro.relational.datalog import (
    Atom,
    NegatedAtom,
    Program,
    Rule,
    Var,
    compile_rule,
    evaluate_rule,
    plan_cache_stats,
    run_program,
    unfold,
)
from repro.relational.expressions import And, Cmp, Const, Not, Or, Ref
from repro.relational.schema import TableSchema
from repro.relational.table import Table

#: One table per access path: ``r`` has nothing declared (scan, or the
#: auto-built index once it has ``_AUTO_INDEX_MIN_ROWS`` rows), ``s`` two
#: declared indexes (largest covering one + residual), ``u`` a unique key.
SCHEMAS = {
    "r": TableSchema("r", ("c0", "c1")),
    "s": TableSchema("s", ("c0", "c1", "c2"), indexes=(("c0",), ("c0", "c1"))),
    "u": TableSchema("u", ("c0", "c1"), key=("c0",)),
}
ARITIES = {name: schema.arity for name, schema in SCHEMAS.items()}
#: Mixed types, so ``<`` and friends go through ``compare``'s fallback.
VALUES = st.sampled_from([0, 1, 2, "a", "b", None, 1.5])
VARIABLES = ("x", "y", "z")


@pytest.fixture(autouse=True, scope="module")
def small_auto_index():
    """Auto-build indexes from 3 rows on, so 6-row tables exercise them."""
    before = table_module._AUTO_INDEX_MIN_ROWS
    table_module._AUTO_INDEX_MIN_ROWS = 3
    yield
    table_module._AUTO_INDEX_MIN_ROWS = before


# -- the reference ---------------------------------------------------------------


def _project(atom: Atom, env: dict) -> tuple:
    return tuple(env[t.name] if isinstance(t, Var) else t for t in atom.terms)


def reference(rows: dict[str, list[tuple]], rule: Rule) -> set[tuple]:
    """Every combination of body rows, checked the slow way."""
    out = set()
    for combo in itertools.product(*(rows[atom.table] for atom in rule.body)):
        env: dict = {}
        consistent = all(
            (env.setdefault(term.name, value) if isinstance(term, Var) else term)
            == value
            for atom, row in zip(rule.body, combo)
            for term, value in zip(atom.terms, row)
        )
        if (
            consistent
            and all(cond.eval(env) for cond in rule.conditions)
            and not any(
                _project(n.atom, env) in rows[n.atom.table] for n in rule.negated
            )
        ):
            out.add(_project(rule.head, env))
    return out


def build(rows: dict[str, list[tuple]]) -> dict[str, Table]:
    tables = {}
    for name, content in rows.items():
        tables[name] = Table(SCHEMAS[name])
        tables[name].insert_many(content)
    return tables


# -- strategies --------------------------------------------------------------------


@st.composite
def databases(draw) -> dict[str, list[tuple]]:
    return {
        "r": draw(st.lists(st.tuples(VALUES, VALUES), max_size=6)),
        "s": draw(st.lists(st.tuples(VALUES, VALUES, VALUES), max_size=6)),
        "u": draw(
            st.lists(st.tuples(VALUES, VALUES), max_size=5, unique_by=lambda r: r[0])
        ),
    }


def _atoms(arities: dict[str, int], table=None):
    term = st.one_of(st.sampled_from(VARIABLES).map(Var), VALUES)
    tables = st.sampled_from(sorted(arities)) if table is None else st.just(table)
    return tables.flatmap(
        lambda name: st.tuples(*[term] * arities[name]).map(
            lambda terms: Atom(name, terms)
        )
    )


def _conditions(names: list[str]):
    operand = VALUES.map(Const)
    if names:
        operand = st.one_of(st.sampled_from(names).map(Ref), operand)
    comparison = st.builds(
        Cmp, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), operand, operand
    )
    return st.recursive(
        comparison,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3).map(lambda items: And(tuple(items))),
            st.lists(inner, max_size=3).map(lambda items: Or(tuple(items))),
            inner.map(Not),
        ),
        max_leaves=6,
    )


@st.composite
def rules(draw, arities=ARITIES, head="q", min_head=0, first_table=None) -> Rule:
    body = draw(st.lists(_atoms(arities), min_size=1, max_size=3))
    if first_table is not None:
        body[0] = draw(_atoms(arities, first_table))
    names = sorted(set().union(*(atom.variables() for atom in body)))
    term = VALUES
    if names:
        term = st.one_of(st.sampled_from(names).map(Var), VALUES)
    head_terms = draw(st.lists(term, min_size=min_head, max_size=3))
    negated = [
        NegatedAtom(Atom(name, tuple(draw(term) for _ in range(ARITIES[name]))))
        for name in draw(st.lists(st.sampled_from(sorted(ARITIES)), max_size=1))
    ]
    conditions = draw(st.lists(_conditions(names), max_size=2))
    return Rule(Atom(head, tuple(head_terms)), body, conditions, negated)


# -- differential -----------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(databases(), rules())
def test_compiled_rule_matches_reference(rows, rule):
    assert evaluate_rule(build(rows), rule) == reference(rows, rule)


@settings(max_examples=150, deadline=None)
@given(st.data(), databases())
def test_program_reading_an_earlier_temp_matches_reference(data, rows):
    first = data.draw(rules(head="t0", min_head=1))
    arities = {**ARITIES, "t0": len(first.head.terms)}
    second = data.draw(rules(arities, first_table="t0"))
    tables = build(rows)
    result, temps = run_program(tables, Program([first, second]), keep_temps=True)
    t0 = reference(rows, first)
    assert result == reference({**rows, "t0": list(t0)}, second)
    assert set(temps["t0"]) == t0 and len(temps["t0"]) == len(t0)
    assert sorted(tables) == sorted(ARITIES)  # the caller's mapping is untouched
    # ... and unfolded, whether or not t0 is read once: the same answers.
    assert run_program(tables, unfold(Program([first, second]), tables))[0] == result


@settings(max_examples=150, deadline=None)
@given(st.data(), databases(), rules())
def test_forks_taken_before_later_writes_match_reference(data, rows, rule):
    """A fork probes the owner's indexes; what the owner wrote since shows up
    in the buckets and must be dropped by the fork's own row check."""
    tables = build(rows)
    evaluate_rule(tables, rule)  # plan (and any auto index) from the live tables
    forks = {name: table.snapshot_fork() for name, table in tables.items()}
    after = {name: list(content) for name, content in rows.items()}
    for name in ("r", "s"):
        if rows[name]:
            for row in data.draw(st.lists(st.sampled_from(rows[name]), max_size=2)):
                tables[name].delete_matching(dict(enumerate(row)))
                after[name] = [kept for kept in after[name] if kept != row]
        extra = data.draw(st.lists(st.tuples(*[VALUES] * ARITIES[name]), max_size=2))
        tables[name].insert_many(extra)
        after[name] += extra
    assert evaluate_rule(forks, rule) == reference(rows, rule)
    assert evaluate_rule(tables, rule) == reference(after, rule)


# -- the plan cache ----------------------------------------------------------------

X, Y, Z = (Var(name) for name in VARIABLES)


def _two_hop(start, label, head="hop"):
    return Rule(
        Atom(head, (label, Z)),
        [Atom("r", (start, Y)), Atom("r", (Y, Z))],
        conditions=(Cmp("!=", Ref("z"), Const(start)),),
    )


def test_rules_differing_only_in_constants_share_one_plan():
    tables = build({"r": [(1, 2), (2, 3), (2, 1), (5, 2)], "s": [], "u": []})
    for _ in range(2):  # the first run builds r's index: one more catalog
        evaluate_rule(tables, _two_hop(1, "from 1"))
    before = plan_cache_stats()
    assert evaluate_rule(tables, _two_hop(5, "to")) == {("to", 3), ("to", 1)}
    assert evaluate_rule(tables, _two_hop(1, "from 1")) == {("from 1", 3)}
    after = plan_cache_stats()
    assert after["compiles"] == before["compiles"]
    assert after["hits"] == before["hits"] + 2
    # ... while a rule of another shape (a variable where a constant was) compiles.
    evaluate_rule(tables, _two_hop(X, "from anywhere"))
    assert plan_cache_stats()["compiles"] == before["compiles"] + 1


def test_the_cache_never_exceeds_its_bound():
    tables = build({"r": [(1, 2)], "s": [], "u": []})
    capacity = plan_cache_stats()["capacity"]
    for i in range(capacity + 40):
        assert evaluate_rule(tables, _two_hop(1, "x", head=f"bound{i}")) == set()
        assert plan_cache_stats()["size"] <= capacity
    assert plan_cache_stats()["size"] == capacity
    # The oldest shapes were evicted: evaluating one again compiles again.
    before = plan_cache_stats()["compiles"]
    evaluate_rule(tables, _two_hop(1, "x", head="bound0"))
    assert plan_cache_stats()["compiles"] == before + 1


def test_threads_compiling_distinct_new_shapes_agree_with_serial_answers():
    rows = {"r": [(i, (i * 7) % 10) for i in range(10)], "s": [], "u": []}
    tables = build(rows)

    def shapes(thread: int) -> list[Rule]:
        return [
            Rule(
                Atom(f"thread{thread}_{n}", (X, Z)),
                [Atom("r", (X, Y)), Atom("r", (Y, Z))] + [Atom("r", (Z, X))] * (n % 3),
                conditions=(Cmp("<", Ref("x"), Const(3 + n)),),
            )
            for n in range(25)
        ]

    expected = {t: [reference(rows, rule) for rule in shapes(t)] for t in range(8)}
    got: dict[int, list] = {}
    start = threading.Barrier(8)

    def work(thread: int) -> None:
        start.wait(timeout=10)
        got[thread] = [evaluate_rule(tables, rule) for rule in shapes(thread)]

    threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == expected
    assert plan_cache_stats()["size"] <= plan_cache_stats()["capacity"]


def test_a_plan_names_no_table():
    """One plan object serves the live tables and every fork of them."""
    rule = _two_hop(1, "x")
    live = build({"r": [(1, 2), (2, 3)], "s": [], "u": []})
    plan, params = compile_rule(rule, live)
    fork = {name: table.snapshot_fork() for name, table in live.items()}
    live["r"].insert((2, 4))
    assert plan.run(params, plan.bind(fork, rule)) == {("x", 3)}
    assert plan.run(params, plan.bind(live, rule)) == {("x", 3), ("x", 4)}


def test_stale_bucket_candidates_are_counted_and_dropped():
    live = build({"r": [], "s": [(1, 1, "old"), (1, 2, "gone")], "u": []})
    rule = Rule(Atom("q", (X,)), [Atom("s", (1, Y, X))])
    fork = {name: table.snapshot_fork() for name, table in live.items()}
    live["s"].insert((1, 3, "new"))
    pinned = {name: table.snapshot_fork() for name, table in live.items()}
    live["s"].delete_matching({2: "gone"})
    counters = live["s"].lineage.counters
    before = counters.stale_skipped
    assert evaluate_rule(fork, rule) == {("old",), ("gone",)}  # skips "new"
    assert evaluate_rule(pinned, rule) == {("old",), ("gone",), ("new",)}
    assert evaluate_rule(live, rule) == {("old",), ("new",)}  # skips "gone"
    assert counters.stale_skipped == before + 2


def test_the_same_shape_on_another_catalog_is_another_plan():
    """Access paths are compiled in: tables of the same names with other
    keys or indexes must not run each other's plans."""
    rule = Rule(Atom("q", (X, Z)), [Atom("r", (1, X)), Atom("w", (X, Y, Z))])
    rows = [(i, i % 3, f"z{i}") for i in range(9)]
    catalogs = {
        "keyed": TableSchema("w", ("c0", "c1", "c2"), key=("c0",)),
        "indexed": TableSchema("w", ("c0", "c1", "c2"), indexes=(("c0",),)),
        "bare": TableSchema("w", ("c0", "c1", "c2")),
    }
    plans, paths = {}, {}
    for name, schema in catalogs.items():
        tables = build({"r": [(1, 2), (1, 5), (0, 7)], "s": [], "u": []})
        tables["w"] = Table(schema)
        tables["w"].insert_many(rows)
        for _ in range(2):  # the first run builds r's index, and bare w's
            assert evaluate_rule(tables, rule) == {(2, "z2"), (5, "z5")}
        compiles = plan_cache_stats()["compiles"]
        assert evaluate_rule(tables, rule) == {(2, "z2"), (5, "z5")}
        plans[name], _ = compile_rule(rule, tables)
        assert plan_cache_stats()["compiles"] == compiles
        paths[name] = plans[name].describe(tables, rule)
    assert paths["keyed"] == "q: r[c0] index(c0) -> w[c0] key"
    assert paths["indexed"] == paths["bare"] == "q: r[c0] index(c0) -> w[c0] index(c0)"
    assert plans["keyed"] is not plans["indexed"]
    # The index bare w built made it the catalog of the declared one.
    assert plans["bare"] is plans["indexed"]
    assert plan_cache_stats()["size"] <= plan_cache_stats()["capacity"]


def test_the_join_order_prefers_an_index_to_building_one():
    """``big`` is first in source order and shares the constant, but only a
    built index would serve it; ``s`` has a declared one."""
    tables = build({"r": [], "s": [(1, 2, i) for i in range(5)], "u": []})
    tables["big"] = Table(TableSchema("big", ("c0", "c1")))
    tables["big"].insert_many([(i % 5, 1) for i in range(40)])
    rule = Rule(Atom("q", (X,)), [Atom("big", (X, 1)), Atom("s", (1, 2, X))])
    plan, _ = compile_rule(rule, tables)
    assert plan.describe(tables, rule) == (
        "q: s[c0, c1] index(c0, c1) -> big[c0, c1] build(c0, c1)"
    )
    assert evaluate_rule(tables, rule) == {(i,) for i in range(5)}


# -- unfold: temporaries read once become part of their reader ----------------------


def _tables():
    return build(
        {
            "r": [(1, 2), (2, 3), (3, 3), (4, 1)],
            "s": [(1, 2, 3), (2, 3, 4), (3, 3, 3)],
            "u": [(1, "a"), (3, "c")],
        }
    )


def _same(program: Program, tables=None) -> Program:
    """``unfold(program)``, having checked it answers as ``program`` does."""
    tables = tables or _tables()
    rewritten = unfold(program, tables)
    assert run_program(tables, rewritten)[0] == run_program(tables, program)[0]
    return rewritten


class TestUnfold:
    def test_a_temporary_read_once_is_folded_into_its_reader(self):
        program = Program(
            [
                Rule(
                    Atom("t", (X, Y)),
                    [Atom("r", (X, Y))],
                    (Cmp("<", Ref("x"), Ref("y")),),
                ),
                Rule(Atom("q", (X, Z)), [Atom("t", (X, Y)), Atom("s", (Y, Z, Z))]),
            ]
        )
        (rule,) = _same(program).rules
        assert str(rule) == "q(x, z) :- r(x, y), s(y, z, z), (x < y)"

    def test_variables_of_the_definition_are_renamed_apart(self):
        # t's y is not the reader's y; t's x is the reader's z.
        program = Program(
            [
                Rule(
                    Atom("t", (X,)),
                    [Atom("r", (X, Y))],
                    (Cmp("!=", Ref("y"), Const(3)),),
                ),
                Rule(Atom("q", (Y, Z)), [Atom("r", (Y, Z)), Atom("t", (Z,))]),
            ]
        )
        (rule,) = _same(program).rules
        assert str(rule) == "q(y, z) :- r(y, z), r(z, y'), (y' != 3)"

    def test_a_constant_in_the_head_binds_the_readers_variable(self):
        program = Program(
            [
                Rule(Atom("t", (X, 3)), [Atom("r", (X, 3))]),
                Rule(
                    Atom("q", (X, Y)), [Atom("t", (X, Y))], (Cmp(">", Ref("y"), Ref("x")),)
                ),
            ]
        )
        (rule,) = _same(program).rules
        assert str(rule) == "q(x, 3) :- r(x, 3), (3 > x)"

    def test_a_constant_in_the_atom_selects_in_the_definition(self):
        program = Program(
            [
                Rule(Atom("t", (X, Y, X)), [Atom("r", (X, Y))]),
                Rule(Atom("q", (Z,)), [Atom("t", (Z, 3, Y))]),  # so y = z too
            ]
        )
        (rule,) = _same(program).rules
        assert str(rule) == "q(z) :- r(z, 3)"

    def test_constants_that_differ_derive_nothing(self):
        program = Program(
            [
                Rule(Atom("t", (X, 3)), [Atom("r", (X, Y))]),
                Rule(Atom("q", (X,)), [Atom("t", (X, 4))]),
            ]
        )
        rewritten = _same(program)
        assert len(rewritten.rules) == 1
        assert run_program(_tables(), rewritten) == (set(), {})
        agree = Program([program.rules[0], Rule(Atom("q", (X,)), [Atom("t", (X, 3))])])
        assert run_program(_tables(), _same(agree))[0] == {(1,), (2,), (3,), (4,)}

    def test_a_temporary_read_twice_is_not_unfolded(self):
        program = Program(
            [
                Rule(Atom("t", (X, Y)), [Atom("r", (X, Y))]),
                Rule(Atom("q", (X, Z)), [Atom("t", (X, Y)), Atom("t", (Y, Z))]),
            ]
        )
        assert [str(r) for r in _same(program)] == [str(r) for r in program]

    def test_what_is_not_a_single_use_temporary_stays_as_listed(self):
        t = Rule(Atom("t", (X,)), [Atom("r", (X, Y))])
        listed = {
            "read under negation": [
                t,
                Rule(
                    Atom("q", (X,)),
                    [Atom("u", (X, Y))],
                    negated=[NegatedAtom(Atom("t", (X,)))],
                ),
            ],
            "derived twice": [
                t,
                Rule(Atom("t", (X,)), [Atom("u", (X, Y))]),
                Rule(Atom("q", (X,)), [Atom("t", (X,))]),
            ],
            "appended to": [
                Rule(Atom("u", (X, "new")), [Atom("r", (X, 1))]),
                Rule(Atom("q", (X,)), [Atom("u", (X, Y))]),
            ],
            "what it reads changes before it is read": [
                t,
                Rule(Atom("r", (9, X)), [Atom("u", (X, Y))]),
                Rule(Atom("q", (X,)), [Atom("t", (X,))]),
            ],
        }
        for why, rules_ in listed.items():
            program = Program(list(rules_))
            assert [str(r) for r in unfold(program, _tables())] == [
                str(r) for r in program
            ], why
            assert run_program(_tables(), unfold(program, _tables())) == run_program(
                _tables(), program
            ), why

    def test_a_chain_of_temporaries_unfolds_all_the_way(self):
        program = Program(
            [
                Rule(Atom("a", (X, Y)), [Atom("r", (X, Y))]),
                Rule(Atom("b", (X, Z)), [Atom("a", (X, Y)), Atom("r", (Y, Z))]),
                Rule(
                    Atom("q", (X,)),
                    [Atom("b", (X, 3))],
                    negated=[NegatedAtom(Atom("u", (X, "a")))],
                ),
            ]
        )
        (rule,) = _same(program).rules
        assert str(rule) == "q(x) :- r(x, y), r(y, 3), not u(x, 'a')"

    def test_components_that_share_no_variable_are_rules_of_their_own(self):
        """Each is computed once and the last rule multiplies them; a single
        atom needs no rule, a group nothing is read from derives ``True``."""
        program = Program(
            [
                Rule(Atom("a", (X, Y)), [Atom("r", (X, Y)), Atom("u", (X, Z))]),
                Rule(Atom("b", (X,)), [Atom("s", (X, Y, Z)), Atom("r", (Y, Z))]),
                Rule(
                    Atom("q", (X, Z)),
                    [Atom("a", (X, Y)), Atom("b", (Var("w"),)), Atom("u", (Z, "c"))],
                    (Cmp("<", Ref("x"), Const(3)), Cmp("!=", Ref("z"), Ref("x"))),
                ),
            ]
        )
        tables = _tables()
        rewritten = _same(program, tables)
        assert [str(r) for r in rewritten] == [
            "q.0(x) :- r(x, y), u(x, z'), (x < 3)",
            "q.1(True) :- s(w, y', z''), r(y', z'')",
            "q(x, z) :- q.0(x), q.1(True), u(z, 'c'), (z != x)",
        ]
        assert run_program(tables, rewritten)[0] == {(1, 3)}
        # A name that is taken is not taken again.
        tables["q.0"] = Table(TableSchema("q.0", ("c0",)))
        assert unfold(program, tables).rules[0].head.table == "q.0'"

    @pytest.mark.parametrize("hops", [16, 24, 40])
    def test_unfolded_joins_longer_than_the_nesting_limit(self, hops):
        """One temporary per hop, each read once: unfolded, one rule of
        ``hops`` atoms, which goes on in a second function past 15 loops."""
        rows = {"r": [(i, i + 1) for i in range(60)], "s": [], "u": []}
        h = [Var(f"h{i}") for i in range(hops + 1)]
        program = Program(
            [Rule(Atom("t1", (h[0], h[1])), [Atom("r", (h[0], h[1]))])]
            + [
                Rule(
                    Atom(f"t{i + 1}", (h[0], h[i + 1])),
                    [Atom(f"t{i}", (h[0], h[i])), Atom("r", (h[i], h[i + 1]))],
                )
                for i in range(1, hops)
            ]
            + [Rule(Atom("q", (h[0], h[hops])), [Atom(f"t{hops}", (h[0], h[hops]))])]
        )
        tables = build(rows)
        (rule,) = unfold(program, tables).rules
        assert len(rule.body) == hops > datalog._MAX_NEST
        assert evaluate_rule(tables, rule) == {(i, i + hops) for i in range(61 - hops)}


# -- joins longer than CPython's 20 nested blocks -----------------------------------


@pytest.mark.parametrize("atoms", [15, 16, 21, 25, 47])
def test_a_chain_rule_of_any_length_compiles(atoms):
    """One ``for`` per body atom, and CPython refuses a function with more
    than 20 nested: the plan goes on in another function past 15."""
    rows = {"r": [(i, i + 1) for i in range(50)], "s": [], "u": [(7, "x")]}
    hops = [Var(f"h{i}") for i in range(atoms + 1)]
    rule = Rule(
        Atom("q", (hops[0], hops[atoms // 2], hops[-1])),
        [Atom("r", (hops[i], hops[i + 1])) for i in range(atoms)],
        # Read in the last function, bound in the first; and the other way.
        conditions=(Cmp("<", Ref("h0"), Ref(f"h{atoms}")), Cmp("!=", Ref("h1"), Const(3))),
        negated=(NegatedAtom(Atom("u", (hops[2], "x"))),),
    )
    starts = [i for i in range(51 - atoms) if i + 1 != 3 and i + 2 != 7]
    expected = {(i, i + atoms // 2, i + atoms) for i in starts}
    assert expected and evaluate_rule(build(rows), rule) == expected


def test_queries_with_more_than_twenty_atoms_in_a_rule(example_store):
    from repro.query.parser import parse_bcq
    from repro.query.translate import evaluate_translated

    def ask(text):
        return evaluate_translated(example_store, parse_bcq(text, example_store.schema))

    subgoal = "['Bob'] Sightings+(k, z, sp, u, v)"
    assert ask("q(k) :- " + ", ".join([subgoal] * 21)) == ask(f"q(k) :- {subgoal}")
    path = ", ".join(["x", "y"] * 10)  # 20 E-steps in T0's rule
    assert ask(f"q(k, x) :- [{path}] Sightings+(k, z, sp, u, v)") == ask(
        "q(k, x) :- [x, y] Sightings+(k, z, sp, u, v)"
    )


# -- errors are the rule's, not the data's -----------------------------------------


class TestErrorsBeforeAnyRowIsRead:
    """Each rule's first atom is over an empty table: under the interpreter
    no row ever reached the broken part and these rules "worked"."""

    @pytest.fixture
    def tables(self):
        return build({"r": [], "s": [(1, 2, 3)], "u": []})

    def test_arity_mismatch(self, tables):
        rule = Rule(Atom("q", (X,)), [Atom("r", (X, Y)), Atom("s", (Y, 7))])
        message = r"atom s\(y, 7\) arity mismatch with table s\(3\)"
        with pytest.raises(EngineError, match=message):
            evaluate_rule(tables, rule)

    def test_unknown_table(self, tables):
        rule = Rule(Atom("q", (X,)), [Atom("r", (X, Y)), Atom("nope", (Y,))])
        with pytest.raises(UnknownTableError, match="unknown table 'nope'"):
            evaluate_rule(tables, rule)

    def test_negated_atom_with_an_unbound_variable(self, tables):
        rule = Rule(
            Atom("q", (X,)),
            [Atom("r", (X, Y))],
            negated=(NegatedAtom(Atom("s", (X, Z, 1))),),
        )
        message = r"negated atom s\(x, z, 1\) has unbound variable 'z'"
        with pytest.raises(EngineError, match=message):
            evaluate_rule(tables, rule)

    def test_negated_atom_arity_and_table_are_checked_too(self, tables):
        for atom, error in (
            (Atom("s", (X, Y)), EngineError),
            (Atom("nope", (X,)), UnknownTableError),
        ):
            rule = Rule(
                Atom("q", (X,)), [Atom("r", (X, Y))], negated=(NegatedAtom(atom),)
            )
            with pytest.raises(error):
                evaluate_rule(tables, rule)

    def test_condition_naming_an_unbound_variable(self, tables):
        rule = Rule(
            Atom("q", (X,)),
            [Atom("r", (X, Y))],
            conditions=(
                Or((Cmp("=", Ref("x"), Const(1)), Cmp("<", Ref("w"), Ref("y")))),
            ),
        )
        with pytest.raises(EngineError, match="unbound name 'w' in expression"):
            evaluate_rule(tables, rule)

    def test_a_failed_compile_is_not_cached(self, tables):
        rule = Rule(Atom("q", ()), [Atom("r", (X, Y))], conditions=(Ref("w"),))
        for _ in range(2):
            with pytest.raises(EngineError):
                evaluate_rule(tables, rule)


# -- run_program's tables ----------------------------------------------------------


class TestProgramTables:
    def test_appending_to_an_existing_head_table_keeps_set_semantics(self):
        tables = build({"r": [(1, 2), (2, 3)], "s": [], "u": [(2, 3)]})
        mapping = dict(tables)
        program = Program([Rule(Atom("u", (X, Y)), [Atom("r", (X, Y))])])
        result, temps = run_program(tables, program, keep_temps=True)
        assert result == {(1, 2), (2, 3)}
        assert temps == {} and tables == mapping
        assert sorted(tables["u"]) == [(1, 2), (2, 3)]  # (2, 3) was there: once
        run_program(tables, program)
        assert len(tables["u"]) == 2
        with pytest.raises(DuplicateKeyError):  # the head table's key still holds
            run_program(tables, Program([Rule(Atom("u", (X, 9)), [Atom("r", (X, Y))])]))

    def test_boolean_heads_and_kept_temps(self):
        tables = build({"r": [(1, 2), (2, 3), (1, 3)], "s": [], "u": []})
        program = Program(
            [
                Rule(Atom("t", (X,)), [Atom("r", (X, Y))]),
                Rule(Atom("yes", ()), [Atom("t", (1,))]),
            ]
        )
        result, temps = run_program(tables, program, keep_temps=True)
        assert result == {()}
        assert list(temps) == ["t"] and isinstance(temps["t"], Table)
        assert len(temps["t"]) == 2  # {1, 2}: the head is a set
        no = Program([Rule(Atom("no", ()), [Atom("r", (3, X))])])
        assert run_program(tables, no) == (set(), {})

    def test_bulk_extend_checks_what_insert_checks(self):
        plain = Table(SCHEMAS["r"])
        plain.extend([(1, 2), (3, 4)])
        assert plain.rows() == [(1, 2), (3, 4)] and plain.next_rowid == 2
        with pytest.raises(ValueError):
            plain.extend([(5, 6), (7,)])
        assert len(plain) == 2
        keyed = Table(SCHEMAS["u"])
        with pytest.raises(DuplicateKeyError):
            keyed.extend([(1, "a"), (1, "b")])
        indexed = Table(SCHEMAS["s"])
        indexed.extend([(1, 2, 3), (1, 2, 4)])
        assert len(list(indexed.match_columns({0: 1, 1: 2}))) == 2
