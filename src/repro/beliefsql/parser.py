"""Lexer and recursive-descent parser for BeliefSQL (Fig. 1).

Keywords are case-insensitive (``SELECT``/``select``); identifiers keep their
case. String literals use single quotes with ``''`` escaping; numbers are
ints or floats (scientific notation accepted, so any finite float's ``repr``
re-tokenizes). ``BELIEF`` arguments may be string literals, numbers,
identifiers (user names), or correlated ``alias.column`` references.

``?`` parameter markers are accepted wherever a literal is (``VALUES``
lists, ``set`` values, condition operands, ``BELIEF`` arguments) and
numbered left to right; a statement's parameter arity is derived from the
AST by :func:`repro.beliefsql.ast.statement_placeholders`, which also
verifies the indices form a contiguous ``0..n-1`` range.
"""

from __future__ import annotations

import re
from typing import Any

from repro.beliefsql.ast import (
    BeliefSpec,
    ColumnRef,
    Condition,
    DeleteStatement,
    FromItem,
    InsertStatement,
    LifecycleFilter,
    Literal,
    Operand,
    Placeholder,
    SelectStatement,
    Statement,
    UpdateStatement,
)
from repro.errors import BeliefSQLSyntaxError

_KEYWORDS = frozenset(
    {
        "select", "from", "where", "insert", "into", "values",
        "delete", "update", "set", "and", "as", "not", "belief", "with",
    }
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<op><>|!=|<=|>=|=|<|>)
  | (?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<string>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<dot>\.)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<star>\*)
  | (?P<semicolon>;)
  | (?P<qmark>\?)
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int) -> None:
        self.kind = kind
        self.text = text
        self.pos = pos

    @property
    def keyword(self) -> str | None:
        if self.kind == "ident" and self.text.lower() in _KEYWORDS:
            return self.text.lower()
        return None


def tokenize(sql: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            raise BeliefSQLSyntaxError(
                f"unexpected character {sql[pos]!r} at position {pos}"
            )
        kind = match.lastgroup
        assert kind is not None
        if kind != "ws":
            tokens.append(_Token(kind, match.group(), pos))
        pos = match.end()
    tokens.append(_Token("eof", "", pos))
    return tokens


class _Parser:
    def __init__(self, sql: str) -> None:
        self.tokens = tokenize(sql)
        self.index = 0
        self.placeholders = 0

    # -- token plumbing ----------------------------------------------------

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.current
        self.index += 1
        return token

    def error(self, expected: str) -> BeliefSQLSyntaxError:
        tok = self.current
        return BeliefSQLSyntaxError(
            f"expected {expected} at position {tok.pos}, found {tok.text!r}"
        )

    def expect_kind(self, kind: str) -> _Token:
        if self.current.kind != kind:
            raise self.error(kind)
        return self.advance()

    def expect_keyword(self, word: str) -> _Token:
        if self.current.keyword != word:
            raise self.error(word.upper())
        return self.advance()

    def accept_keyword(self, word: str) -> bool:
        if self.current.keyword == word:
            self.advance()
            return True
        return False

    def expect_identifier(self) -> str:
        token = self.current
        if token.kind != "ident" or token.keyword is not None:
            raise self.error("an identifier")
        self.advance()
        return token.text

    # -- shared pieces --------------------------------------------------------

    def parse_literal_value(self) -> Any:
        token = self.current
        if token.kind == "string":
            self.advance()
            return token.text[1:-1].replace("''", "'")
        if token.kind == "number":
            self.advance()
            text = token.text
            if "." in text or "e" in text or "E" in text:
                return float(text)
            return int(text)
        raise self.error("a literal value")

    def next_placeholder(self) -> Placeholder:
        self.expect_kind("qmark")
        placeholder = Placeholder(self.placeholders)
        self.placeholders += 1
        return placeholder

    def parse_value(self) -> Any:
        """A literal value or a ``?`` placeholder (insert/set positions)."""
        if self.current.kind == "qmark":
            return self.next_placeholder()
        return self.parse_literal_value()

    def parse_operand(self, allow_bare_column: bool) -> Operand:
        token = self.current
        if token.kind == "qmark":
            return self.next_placeholder()
        if token.kind in ("string", "number"):
            return Literal(self.parse_literal_value())
        if token.kind == "ident" and token.keyword is None:
            name = self.expect_identifier()
            if self.current.kind == "dot":
                self.advance()
                column = self.expect_identifier()
                return ColumnRef(name, column)
            if allow_bare_column:
                return ColumnRef(None, name)
            # A bare identifier in a BELIEF position is a user name literal.
            return Literal(name)
        raise self.error("a column reference or literal")

    def parse_belief_spec(self) -> BeliefSpec:
        path: list[Operand] = []
        while self.accept_keyword("belief"):
            path.append(self.parse_operand(allow_bare_column=False))
        return BeliefSpec(tuple(path), self.accept_keyword("not"))

    def parse_conditions(self) -> tuple[Condition, ...]:
        if not self.accept_keyword("where"):
            return ()
        conditions = [self.parse_condition()]
        while self.accept_keyword("and"):
            conditions.append(self.parse_condition())
        return tuple(conditions)

    def parse_condition(self) -> Condition:
        left = self.parse_operand(allow_bare_column=True)
        op = self.expect_kind("op").text
        right = self.parse_operand(allow_bare_column=True)
        return Condition(op, left, right)

    # -- statements --------------------------------------------------------------

    def parse_statement(self) -> Statement:
        keyword = self.current.keyword
        if keyword == "select":
            stmt: Statement = self.parse_select()
        elif keyword == "insert":
            stmt = self.parse_insert()
        elif keyword == "delete":
            stmt = self.parse_delete()
        elif keyword == "update":
            stmt = self.parse_update()
        else:
            raise self.error("SELECT, INSERT, DELETE, or UPDATE")
        if self.current.kind == "semicolon":
            self.advance()
        self.expect_kind("eof")
        return stmt

    def parse_select(self) -> SelectStatement:
        self.expect_keyword("select")
        columns = [self.parse_column_ref()]
        while self.current.kind == "comma":
            self.advance()
            columns.append(self.parse_column_ref())
        self.expect_keyword("from")
        items = [self.parse_from_item()]
        while self.current.kind == "comma":
            self.advance()
            items.append(self.parse_from_item())
        conditions = self.parse_conditions()
        lifecycle = self.parse_lifecycle_filters()
        return SelectStatement(tuple(columns), tuple(items), conditions, lifecycle)

    def parse_lifecycle_filters(self) -> tuple[LifecycleFilter, ...]:
        """The optional trailing ``WITH`` clause of a select.

        ``with status = 'ACTIVE' and confidence >= 0.5 and derived from X``
        — STATUS/CONFIDENCE/DERIVED are matched contextually (they stay
        usable as ordinary identifiers everywhere else).
        """
        if not self.accept_keyword("with"):
            return ()
        filters = [self.parse_lifecycle_filter()]
        while self.accept_keyword("and"):
            filters.append(self.parse_lifecycle_filter())
        return tuple(filters)

    def parse_lifecycle_filter(self) -> LifecycleFilter:
        token = self.current
        word = token.text.lower() if token.kind == "ident" else ""
        if word == "status":
            self.advance()
            op = self.expect_kind("op").text
            if op not in ("=", "<>", "!="):
                raise BeliefSQLSyntaxError(
                    f"STATUS filters use = or <>, found {op!r} at {token.pos}"
                )
            op = "!=" if op == "<>" else op
            return LifecycleFilter("status", op, self.parse_filter_value())
        if word == "confidence":
            self.advance()
            op = self.expect_kind("op").text
            return LifecycleFilter(
                "confidence", "!=" if op == "<>" else op, self.parse_filter_value()
            )
        if word == "derived":
            self.advance()
            self.expect_keyword("from")
            return LifecycleFilter("derived_from", "=", self.parse_filter_value())
        raise self.error("STATUS, CONFIDENCE, or DERIVED FROM")

    def parse_filter_value(self) -> Literal | Placeholder:
        if self.current.kind == "qmark":
            return self.next_placeholder()
        if self.current.kind == "ident" and self.current.keyword is None:
            # A bare identifier is a user-name/belief-id token literal.
            return Literal(self.expect_identifier())
        return Literal(self.parse_literal_value())

    def parse_column_ref(self) -> ColumnRef:
        alias = self.expect_identifier()
        self.expect_kind("dot")
        column = self.expect_identifier()
        return ColumnRef(alias, column)

    def parse_from_item(self) -> FromItem:
        belief = self.parse_belief_spec()
        relation = self.expect_identifier()
        if self.accept_keyword("as"):
            alias = self.expect_identifier()
        elif self.current.kind == "ident" and self.current.keyword is None:
            alias = self.expect_identifier()
        else:
            alias = relation
        return FromItem(belief, relation, alias)

    def parse_insert(self) -> InsertStatement:
        self.expect_keyword("insert")
        self.expect_keyword("into")
        belief = self.parse_belief_spec()
        relation = self.expect_identifier()
        self.expect_keyword("values")
        return InsertStatement(belief, relation, self.parse_values())

    def parse_values(self) -> tuple[Any, ...]:
        """The parenthesized list after ``VALUES``."""
        self.expect_kind("lparen")
        values = [self.parse_value()]
        while self.current.kind == "comma":
            self.advance()
            values.append(self.parse_value())
        self.expect_kind("rparen")
        return tuple(values)

    def parse_delete(self) -> DeleteStatement:
        self.expect_keyword("delete")
        self.expect_keyword("from")
        belief = self.parse_belief_spec()
        relation = self.expect_identifier()
        if self.accept_keyword("values"):
            return DeleteStatement(belief, relation, values=self.parse_values())
        return DeleteStatement(belief, relation, self.parse_conditions())

    def parse_update(self) -> UpdateStatement:
        self.expect_keyword("update")
        belief = self.parse_belief_spec()
        relation = self.expect_identifier()
        self.expect_keyword("set")
        assignments = [self.parse_assignment()]
        while self.current.kind == "comma":
            self.advance()
            assignments.append(self.parse_assignment())
        conditions = self.parse_conditions()
        return UpdateStatement(belief, relation, tuple(assignments), conditions)

    def parse_assignment(self) -> tuple[str, Any]:
        column = self.expect_identifier()
        op = self.expect_kind("op")
        if op.text != "=":
            raise BeliefSQLSyntaxError(
                f"assignments use '=', found {op.text!r} at {op.pos}"
            )
        return (column, self.parse_value())


def parse_beliefsql(sql: str) -> Statement:
    """Parse one BeliefSQL statement into its AST."""
    return _Parser(sql).parse_statement()
