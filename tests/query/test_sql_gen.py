"""The sqlite backend's SQL: the engine's program, rendered once.

``generate_sql`` renders the program a query's translation runs
(:func:`repro.relational.sqlite_backend.program_sql`); these pin the
contract — constants are parameters, never text; a provably empty query
has no SQL; the statement runs — and every shape the renderer must cover,
each checked against the engine running the same program.
"""

import re

import pytest

from repro.errors import EngineError
from repro.query.parser import parse_bcq
from repro.query.sql_gen import evaluate_sql, generate_sql
from repro.query.translate import TranslatedQuery, evaluate_translated
from repro.relational.database import RelationalDatabase
from repro.relational.datalog import (
    ANY,
    Atom,
    NegatedAtom,
    Param,
    PreparedProgram,
    Program,
    Rule,
    Var,
)
from repro.relational.expressions import Cmp, Const, Not, Or, Ref
from repro.relational.schema import TableSchema
from repro.relational.sqlite_backend import SqliteMirror, program_sql
from repro.storage.internal_schema import ROOT_WID


def gen(store, text):
    return generate_sql(store, parse_bcq(text, store.schema))


def _param(generated, sql_fragment_pattern: str):
    """The value of the ``?n`` the pattern's group captures."""
    match = re.search(sql_fragment_pattern, generated.sql)
    assert match, generated.sql
    return generated.params[int(match.group(1)) - 1]


class TestShape:
    def test_one_flat_select_distinct(self, example_store):
        g = gen(example_store, "q(k) :- ['Bob'] Sightings+(k, z, sp, u, v)")
        assert g.sql is not None
        # The unfolded program: one join, no temporary, no subquery.
        assert g.sql.startswith("SELECT DISTINCT")
        assert g.sql.count("SELECT") == 1 and "WITH" not in g.sql
        assert '"v_Sightings"' in g.sql and '"star_Sightings"' in g.sql

    def test_constants_always_parameterized(self, example_store):
        g = gen(
            example_store,
            "q(k) :- ['Bob'] Sightings+(k, z, 'raven', u, 'Lake Placid')",
        )
        assert g.sql is not None
        # No literal values spliced into the SQL text.
        assert "raven" not in g.sql and "Lake Placid" not in g.sql
        assert "raven" in g.params and "Lake Placid" in g.params

    def test_head_constants_are_numbered_parameters(self, example_store):
        g = gen(
            example_store,
            "q('tag', k) :- ['Bob'] Sightings+(k, z, sp, u, v), sp != 'crow'",
        )
        assert g.sql is not None
        assert "tag" not in g.sql and "crow" not in g.sql
        numbers = {int(n) for n in re.findall(r"\?(\d+)", g.sql)}
        assert numbers == set(range(1, len(g.params) + 1))
        with SqliteMirror() as mirror:
            mirror.sync(example_store.engine)
            rows = mirror.execute(g.sql, g.params)
        assert rows and all(row[0] == "tag" for row in rows)

    def test_root_subgoal_has_no_e_joins(self, example_store):
        g = gen(example_store, "q(k) :- [] Sightings+(k, z, sp, u, v)")
        assert g.sql is not None
        assert '"E"' not in g.sql
        assert _param(g, r'"v_Sightings_\d+"\."wid" = \?(\d+)') == ROOT_WID

    def test_deep_path_chains_e_joins(self, example_store):
        g = gen(example_store, "q(k) :- [1, 2, 1] Sightings+(k, z, sp, u, v)")
        assert g.sql is not None
        assert g.sql.count('"E"') == 3

    def test_negative_subgoal_emits_disjunction(self, example_store):
        g = gen(
            example_store,
            "q(x) :- [x] Sightings-(k, z, sp, u, v), "
            "[1] Sightings+(k, z, sp, u, v)",
        )
        assert g.sql is not None
        assert " OR " in g.sql
        assert "<>" in g.sql

    def test_user_atoms_join_catalog(self, example_store):
        g = gen(example_store,
                "q(n) :- Users(x, n), [x] Sightings+(k, z, sp, u, v)")
        assert g.sql is not None
        assert '"U"' in g.sql

    def test_provably_empty_marker(self, example_store):
        g = gen(example_store, "q(k) :- [3, 3] Sightings+(k, z, sp, u, v)")
        assert g.is_empty and g.sql is None

    def test_the_unpushed_listing_keeps_its_temporaries(self, example_store):
        query = parse_bcq(
            "q(x) :- [x] Sightings-(k, z, sp, u, v), "
            "[1] Sightings+(k, z, sp, u, v)",
            example_store.schema,
        )
        listing = TranslatedQuery(query, push_selections=False)
        g = generate_sql(example_store, listing)
        assert g.sql is not None and g.sql.startswith('WITH "T0"("c0"')
        assert '"T1"(' in g.sql
        with SqliteMirror() as mirror:
            mirror.sync(example_store.engine)
            assert evaluate_sql(example_store, listing, mirror) == (
                evaluate_translated(example_store, query)
            )


class TestExecution:
    def test_generated_sql_runs(self, example_store):
        g = gen(
            example_store,
            "q(n, sp) :- Users(x, n), [x] Sightings+(k, z, sp, u, v), "
            "sp >= 'r'",
        )
        with SqliteMirror() as mirror:
            mirror.sync(example_store.engine)
            assert g.sql is not None
            rows = set(map(tuple, mirror.execute(g.sql, g.params)))
        assert ("Bob", "raven") in rows

    def test_head_variable_bound_by_a_path_position(self, example_store):
        # Safe by Def. 13 (x occurs in a belief path): the head reads it
        # from the E-join column that binds it.
        query = parse_bcq("q(x) :- [x] Sightings+(k, z, sp, u, v)", example_store.schema)
        g = generate_sql(example_store, query)
        assert g.sql is not None
        assert re.match(r'SELECT DISTINCT "E_\d+"\."uid" FROM', g.sql)
        with SqliteMirror() as mirror:
            mirror.sync(example_store.engine)
            assert evaluate_sql(example_store, query, mirror) == (
                evaluate_translated(example_store, query)
            )


# ------------------------------------------------------------- the renderer

x, y, z, w = Var("x"), Var("y"), Var("z"), Var("w")


@pytest.fixture(scope="module")
def database():
    db = RelationalDatabase()
    for name, columns, rows in (
        ("R", ("a", "b"), [(1, 2), (2, 3), (3, 3), (4, 1), (5, None)]),
        ("S", ("b", "c", "d"), [(2, "p", 0.5), (3, "q", 1.0), (3, "r", 2.0)]),
    ):
        table = db.create_table(TableSchema(name, columns))
        for row in rows:
            table.insert(row)
    return db


def _answers(database, program: Program, values=()) -> tuple[set, set]:
    """(the engine's answer, the rendered SQL's answer) for ``program``."""
    tables = database.tables()
    engine, _ = PreparedProgram(program).run(tables, values)
    rendered = program_sql(program, tables)
    with SqliteMirror() as mirror:
        mirror.sync(database)
        rows = mirror.execute(rendered.sql, rendered.parameters(values))
    return engine, set(rows) if rendered.width else {() for _ in rows}


def _program(*rules: Rule) -> Program:
    return Program(list(rules))


#: Every shape ``unfold`` and ``translate_with`` emit, as hand-made programs.
PROGRAMS = {
    "join with conditions": _program(
        Rule(
            Atom("Q", (x, z)),
            (Atom("R", (x, y)), Atom("S", (y, z, w))),
            (Cmp(">", Ref("w"), Const(0.7)), Not(Cmp("=", Ref("x"), Const(3)))),
        )
    ),
    "constants and params in atoms and head": _program(
        Rule(Atom("Q", (x, "k", Param(1))), (Atom("R", (x, Param(0))),))
    ),
    "negated atom": _program(
        Rule(Atom("Q", (x,)), (Atom("R", (x, y)),), (), (NegatedAtom(Atom("S", (y, ANY, ANY))),))
    ),
    "negated atom with local variables and conditions": _program(
        Rule(
            Atom("Q", (x,)),
            (Atom("R", (x, y)),),
            (),
            (NegatedAtom(Atom("S", (y, z, w)), (Or((Cmp("<", Ref("w"), Const(1.5)),
                                                  Cmp("=", Ref("z"), Ref("z")))),)),),
        )
    ),
    "several rules, one head": _program(
        Rule(Atom("Q", (x,)), (Atom("R", (x, 3)),)),
        Rule(Atom("Q", (y,)), (Atom("S", (y, "p", w)),)),
    ),
    "temporaries, one read twice": _program(
        Rule(Atom("T", (y, z)), (Atom("S", (y, z, w)),), (Cmp(">=", Ref("w"), Const(Param(0))),)),
        Rule(Atom("T", (y, "extra")), (Atom("R", (y, 1)),)),
        Rule(Atom("Q", (x, z)), (Atom("R", (x, y)), Atom("T", (y, z)))),
        Rule(Atom("Q", (z, y)), (Atom("T", (y, z)),), (), (NegatedAtom(Atom("R", (ANY, y))),)),
    ),
    "0-ary head, true": _program(Rule(Atom("Q", ()), (Atom("R", (x, 3)),))),
    "0-ary head, false": _program(Rule(Atom("Q", ()), (Atom("R", (x, 7)),))),
    "unsatisfiable constant": _program(
        Rule(Atom("Q", (x,)), (Atom("R", (x, y)),), (Const(False),))
    ),
}


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_the_rendered_program_answers_as_the_engine(database, name):
    engine, sql = _answers(database, PROGRAMS[name], values=(3, 1.0))
    assert sql == engine
    assert engine or name.endswith("false") or name == "unsatisfiable constant"


def test_a_rule_reading_a_table_derived_later_is_refused(database):
    program = _program(
        Rule(Atom("Q", (x,)), (Atom("T", (x,)),)),
        Rule(Atom("T", (x,)), (Atom("R", (x, 3)),)),
        Rule(Atom("Q", (x,)), (Atom("R", (x, 1)),)),
    )
    with pytest.raises(EngineError):
        program_sql(program, database.tables())
