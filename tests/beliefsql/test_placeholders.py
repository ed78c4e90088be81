"""``?`` placeholders: parsing, compile-once/bind-many, and quoting safety."""

from __future__ import annotations

import pytest

from repro.beliefsql.ast import (
    Placeholder,
    bind_statement,
    statement_placeholders,
)
from repro.beliefsql.compiler import (
    compile_delete,
    compile_insert,
    compile_select,
    compile_select_prepared,
    compile_update,
)
from repro.beliefsql.parser import parse_beliefsql
from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.errors import (
    BeliefSQLCompileError,
    BeliefSQLError,
    BeliefSQLSyntaxError,
    ParameterBindingError,
)

SCHEMA = sightings_schema()


# ------------------------------------------------------------------- parsing


class TestParsing:
    def test_placeholders_numbered_left_to_right(self):
        stmt = parse_beliefsql(
            "insert into BELIEF ? Sightings values (?, ?, 'crow', ?, ?)"
        )
        assert stmt.belief.path == (Placeholder(0),)
        assert stmt.values == (
            Placeholder(1), Placeholder(2), "crow", Placeholder(3),
            Placeholder(4),
        )
        assert statement_placeholders(stmt) == 5

    def test_placeholders_in_conditions_and_assignments(self):
        stmt = parse_beliefsql(
            "update BELIEF ? Sightings set species = ? where sid = ?"
        )
        assert stmt.assignments == (("species", Placeholder(1)),)
        assert stmt.conditions[0].right == Placeholder(2)
        assert statement_placeholders(stmt) == 3

    def test_select_placeholders(self):
        stmt = parse_beliefsql(
            "select S.sid from BELIEF ? Sightings as S where S.species = ?"
        )
        assert statement_placeholders(stmt) == 2

    def test_statement_str_renders_question_marks(self):
        sql = "insert into BELIEF ? Sightings values (?, ?, ?, ?, ?)"
        stmt = parse_beliefsql(sql)
        again = parse_beliefsql(str(stmt))
        assert again == stmt

    def test_no_placeholders_counts_zero(self):
        stmt = parse_beliefsql("select S.sid from Sightings as S")
        assert statement_placeholders(stmt) == 0


# ------------------------------------------------------------ bind_statement


class TestBindStatement:
    def test_bind_insert(self):
        stmt = parse_beliefsql("insert into BELIEF ? Sightings values (?,?,?,?,?)")
        bound = bind_statement(stmt, ("Bob", "s1", "C", "crow", "d", "l"))
        assert statement_placeholders(bound) == 0
        assert bound.values == ("s1", "C", "crow", "d", "l")
        assert str(bound) == (
            "insert into BELIEF 'Bob' Sightings values "
            "('s1', 'C', 'crow', 'd', 'l')"
        )

    def test_bound_statement_with_quote_reparses(self):
        stmt = parse_beliefsql("insert into Sightings values (?,?,?,?,?)")
        bound = bind_statement(stmt, ("s1", "C", "O'Brien's crow", "d", "l"))
        assert parse_beliefsql(str(bound)) == bound

    @pytest.mark.parametrize(
        "value", [1e25, 1e-7, -2.5e300, 3.25, -17, 0.0001]
    )
    def test_bound_numbers_reparse(self, value):
        # Any finite number's repr must re-tokenize (exponent forms included),
        # or the server's replayable op log would break.
        stmt = parse_beliefsql("update Sightings set date = ? where sid = 's1'")
        bound = bind_statement(stmt, (value,))
        assert parse_beliefsql(str(bound)) == bound

    def test_wrong_arity_raises(self):
        stmt = parse_beliefsql("delete from Sightings where sid = ?")
        with pytest.raises(BeliefSQLError):
            bind_statement(stmt, ())
        with pytest.raises(BeliefSQLError):
            bind_statement(stmt, ("s1", "extra"))

    @pytest.mark.parametrize(
        "bad",
        [None, True, False, ["list"], {"d": 1},
         float("inf"), float("-inf"), float("nan")],
    )
    def test_unrepresentable_params_rejected(self, bad):
        # None/bools/containers would execute but could not be rendered back
        # as parseable SQL, breaking the server's replayable op log.
        stmt = parse_beliefsql("insert into Sightings values (?,?,?,?,?)")
        with pytest.raises(ParameterBindingError):
            bind_statement(stmt, ("s1", bad, "crow", "d", "l"))

    def test_unrepresentable_params_rejected_at_execute(self):
        db = BeliefDBMS(sightings_schema(), strict=False)
        db.add_user("Carol")
        with pytest.raises(ParameterBindingError):
            db.execute_sql(
                "insert into Sightings values (?,?,?,?,?)",
                ("s1", None, "crow", "d", "l"),
            )


# ------------------------------------------------------------------ compile


class TestCompiledSelect:
    def test_compile_once_bind_many(self):
        stmt = parse_beliefsql(
            "select S.sid from BELIEF ? Sightings as S where S.species = ?"
        )
        compiled = compile_select_prepared(stmt, SCHEMA)
        assert compiled.param_count == 2
        q1 = compiled.bind(("Bob", "crow"))
        q2 = compiled.bind(("Alice", "eagle"))
        assert q1 is not None and q2 is not None
        assert q1.subgoals[0].path == ("Bob",)
        assert q2.subgoals[0].path == ("Alice",)
        assert "crow" in repr(q1.subgoals[0].args)
        assert "eagle" in repr(q2.subgoals[0].args)

    def test_columns_derived_from_select_list(self):
        stmt = parse_beliefsql("select S.sid, S.species from Sightings as S")
        compiled = compile_select_prepared(stmt, SCHEMA)
        assert compiled.columns == ("sid", "species")

    def test_ambiguous_columns_qualified(self):
        stmt = parse_beliefsql(
            "select A.sid, B.sid from Sightings as A, Sightings as B"
        )
        compiled = compile_select_prepared(stmt, SCHEMA)
        assert compiled.columns == ("A.sid", "B.sid")

    def test_deferred_constraint_filters_at_bind(self):
        # S.sid = ? and S.sid = 's1' cannot be decided at compile time: it is
        # empty exactly when the parameter is not 's1'.
        stmt = parse_beliefsql(
            "select S.sid from Sightings as S where S.sid = ? and S.sid = 's1'"
        )
        compiled = compile_select_prepared(stmt, SCHEMA)
        assert compiled.bind(("s1",)) is not None
        assert compiled.bind(("s2",)) is None

    def test_placeholder_equals_placeholder(self):
        stmt = parse_beliefsql(
            "select S.sid from Sightings as S where S.sid = ? and S.sid = ?"
        )
        compiled = compile_select_prepared(stmt, SCHEMA)
        assert compiled.bind(("s1", "s1")) is not None
        assert compiled.bind(("s1", "s2")) is None

    def test_concrete_contradiction_still_compile_time(self):
        stmt = parse_beliefsql(
            "select S.sid from Sightings as S where S.sid = 's1' and S.sid = 's2'"
        )
        compiled = compile_select_prepared(stmt, SCHEMA)
        assert compiled.query is None
        assert compiled.bind(()) is None

    def test_legacy_compile_select_unchanged(self):
        stmt = parse_beliefsql("select S.sid from Sightings as S")
        query = compile_select(stmt, SCHEMA)
        assert query is not None

    def test_bind_wrong_count_raises(self):
        stmt = parse_beliefsql("select S.sid from Sightings as S where S.sid = ?")
        compiled = compile_select_prepared(stmt, SCHEMA)
        with pytest.raises(ParameterBindingError):
            compiled.bind(())


class TestCompiledDml:
    def test_insert_bind(self):
        stmt = parse_beliefsql("insert into BELIEF ? Sightings values (?,?,?,?,?)")
        compiled = compile_insert(stmt, SCHEMA)
        bound = compiled.bind(("Bob", "s1", "C", "crow", "d", "l"))
        assert bound.path == ("Bob",)
        assert bound.values == ("s1", "C", "crow", "d", "l")
        assert bound.param_count == 0

    def test_delete_predicate_requires_binding(self):
        stmt = parse_beliefsql("delete from Sightings where sid = ?")
        compiled = compile_delete(stmt, SCHEMA)
        tup = SCHEMA.tuple("Sightings", "s1", "C", "crow", "d", "l")
        with pytest.raises(ParameterBindingError):
            compiled.predicate(tup)
        assert compiled.bind(("s1",)).predicate(tup)
        assert not compiled.bind(("zz",)).predicate(tup)

    def test_update_bind_substitutes_assignments(self):
        stmt = parse_beliefsql("update Sightings set species = ? where sid = ?")
        compiled = compile_update(stmt, SCHEMA)
        bound = compiled.bind(("raven", "s1"))
        assert bound.assignments == (("species", "raven"),)


# --------------------------------------------------------- quoting/escaping


class TestQuotingSafety:
    """A value containing ``'`` round-trips through a bound parameter but
    breaks naive string interpolation — the reason examples use ``?``."""

    SPIKY = "O'Brien's \"bald\" eagle"

    def _db(self):
        db = BeliefDBMS(sightings_schema(), strict=False)
        db.add_user("Carol")
        return db

    def test_bound_parameter_round_trips(self):
        db = self._db()
        result = db.execute_sql(
            "insert into Sightings values (?,?,?,?,?)",
            ("s1", "Carol", self.SPIKY, "d", "l"),
        )
        assert result.ok
        rows = db.execute_sql(
            "select S.species from Sightings as S where S.sid = ?", ("s1",)
        ).rows
        assert rows == [(self.SPIKY,)]

    def test_naive_interpolation_breaks(self):
        db = self._db()
        with pytest.raises(BeliefSQLError):
            db.execute_sql(
                f"insert into Sightings values "
                f"('s1','Carol','{self.SPIKY}','d','l')"
            )

    def test_escaped_literal_equals_bound_parameter(self):
        # The '' escape works — but only if the caller remembers it; binding
        # needs no escaping at all.
        db = self._db()
        escaped = self.SPIKY.replace("'", "''")
        db.execute_sql(
            f"insert into Sightings values ('s1','Carol','{escaped}','d','l')"
        )
        rows = db.execute_sql(
            "select S.species from Sightings as S where S.species = ?",
            (self.SPIKY,),
        ).rows
        assert rows == [(self.SPIKY,)]


# ------------------------------------------ one-tuple forms: NOT and VALUES


class TestTupleForms:
    """``NOT`` with no ``BELIEF`` and ``DELETE … VALUES``: the two forms a
    remote client writes one tuple with. The router forwards
    ``str(rewritten)`` to a worker, so each must re-parse to itself."""

    FORMS = [
        "insert into not Sightings values (?, 'it''s', 1.5, -3, ?)",
        "delete from Sightings values (?, 'it''s', 1.5, -3, ?)",
        "delete from not Sightings values ('s1', ?, 'O''Hare', 2, 'l')",
        "delete from BELIEF ? not Sightings values (?, ?, ?, ?, 'x')",
        "select S.sid from Sightings as S, not Sightings as N "
        "where S.sid = N.sid and N.species = 'it''s'",
    ]

    @pytest.mark.parametrize("sql", FORMS)
    def test_form_round_trips_through_str(self, sql):
        stmt = parse_beliefsql(sql)
        assert parse_beliefsql(str(stmt)) == stmt

    def test_not_without_belief_is_a_negative_at_the_own_world(self):
        stmt = parse_beliefsql("insert into not Sightings values (?,?,?,?,?)")
        assert stmt.belief.path == () and stmt.belief.negated
        compiled = compile_insert(stmt, SCHEMA)
        assert compiled.path == () and str(compiled.sign) == "-"

    def test_delete_values_binds_every_column(self):
        stmt = parse_beliefsql("delete from Sightings values (?, 'c', ?, 'd', ?)")
        assert stmt.conditions == ()
        assert stmt.values == (Placeholder(0), "c", Placeholder(1), "d",
                               Placeholder(2))
        assert statement_placeholders(stmt) == 3
        bound = bind_statement(stmt, ("s1", "crow", "l"))
        assert bound.values == ("s1", "c", "crow", "d", "l")
        assert parse_beliefsql(str(bound)) == bound

    def test_session_rewrite_keeps_not(self):
        from repro.server.session import ClientSession

        session = ClientSession()
        session.login(7, "Bob")
        for sql in ("insert into not Sightings values (?,?,?,?,?)",
                    "delete from not Sightings values (?,?,?,?,?)"):
            rewritten = session.rewrite(parse_beliefsql(sql))
            assert rewritten.belief.negated
            assert [p.value for p in rewritten.belief.path] == [7]
            assert parse_beliefsql(str(rewritten)) == rewritten

    @pytest.mark.parametrize("values", ["(?)", "('s1', 'u', 'sp', 'd', 'l', 6)"])
    def test_delete_values_arity_is_a_compile_error(self, values):
        stmt = parse_beliefsql(f"delete from Sightings values {values}")
        with pytest.raises(BeliefSQLCompileError, match="expects 5 values"):
            compile_delete(stmt, SCHEMA)

    @pytest.mark.parametrize("sql", [
        "delete from not not Sightings values (1)",
        "delete from Sightings values ()",
        "delete from Sightings values (1) where sid = 1",
        "delete from Sightings values (S.sid)",
    ])
    def test_malformed_forms_are_syntax_errors(self, sql):
        with pytest.raises(BeliefSQLSyntaxError):
            parse_beliefsql(sql)
