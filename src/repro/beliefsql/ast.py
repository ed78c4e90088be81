"""AST for BeliefSQL (Fig. 1).

The grammar extends SQL's four DML statements with a *belief specification* in
front of relation names::

    select selectlist
      from ((BELIEF user)* not? relationname (as alias)?)+
     where conditionlist

    insert into (BELIEF user)* not? relationname values (...)
    delete from (BELIEF user)* not? relationname where conditionlist
    delete from (BELIEF user)* not? relationname values (...)
    update (BELIEF user)* not? relationname set assignments where conditionlist

A ``BELIEF`` argument is either a literal (user name or id) or a correlated
column reference like ``U.uid`` (only meaningful inside ``select``). ``not``
makes the statement a *negative* belief — "w believes t is false" — at the
path before it; with no ``BELIEF`` it is the statement's own world (the
session's default path for DML, the root for a select). That is not the
absence of a belief: ``delete from R values (t)`` removes the explicit
``t`` and leaves no ``not t`` behind. ``delete ... values`` names one tuple
by its full value list, column names unneeded.

Every value position (``VALUES`` lists, ``set`` assignments, condition
operands, ``BELIEF`` arguments) additionally accepts a ``?`` *placeholder*:
the parser numbers them left to right and :func:`bind_statement` substitutes
a parameter vector at execute time, so one parsed/compiled statement serves
many parameter bindings (see :meth:`repro.bdms.bdms.BeliefDBMS.execute_prepared`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Sequence, Union

from repro.errors import ParameterBindingError


@dataclass(frozen=True)
class ColumnRef:
    """``alias.column`` — or a bare ``column`` (``alias`` None) in DML."""

    alias: str | None
    column: str

    def __str__(self) -> str:
        return f"{self.alias}.{self.column}" if self.alias else self.column


def format_value(value: Any) -> str:
    """Render a Python value as a BeliefSQL literal (``''`` quote escaping).

    Unlike ``repr``, the result re-tokenizes: a string containing ``'`` comes
    out single-quoted with the quote doubled, so ``str(statement)`` round-trips
    through the parser for any string/number value.
    """
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return repr(value)


@dataclass(frozen=True)
class Literal:
    value: Any

    def __str__(self) -> str:
        return format_value(self.value)


@dataclass(frozen=True)
class Placeholder:
    """A ``?`` parameter marker; ``index`` is its 0-based position.

    Placeholders flow through compilation as opaque constants and are
    substituted by :func:`bind_statement` (AST level) or the compiled
    artifacts' ``bind`` methods (execute time).
    """

    index: int

    def __str__(self) -> str:
        return "?"


Operand = Union[ColumnRef, Literal, Placeholder]


@dataclass(frozen=True)
class Condition:
    """``left op right`` with op in =, <>, !=, <, <=, >, >=."""

    op: str
    left: Operand
    right: Operand

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class BeliefSpec:
    """The ``(BELIEF user)+ not?`` prefix; empty path means plain content."""

    path: tuple[Operand, ...] = ()
    negated: bool = False

    @property
    def depth(self) -> int:
        return len(self.path)

    def __str__(self) -> str:
        parts = [f"BELIEF {p}" for p in self.path]
        if self.negated:
            parts.append("not")
        return " ".join(parts)


@dataclass(frozen=True)
class FromItem:
    belief: BeliefSpec
    relation: str
    alias: str

    def __str__(self) -> str:
        prefix = f"{self.belief} " if self.belief.path or self.belief.negated else ""
        return f"{prefix}{self.relation} as {self.alias}"


@dataclass(frozen=True)
class LifecycleFilter:
    """One term of a select's trailing ``WITH`` lifecycle clause.

    ``field`` is ``status`` (``status = 'ACTIVE'``, also ``<>``/``!=``),
    ``confidence`` (any comparison, e.g. ``confidence >= 0.5``), or
    ``derived_from`` (rendered ``derived from x``; matches the transitive
    provenance closure). ``value`` is a literal or a ``?`` placeholder.
    """

    field: str
    op: str
    value: Union[Literal, Placeholder]

    def __str__(self) -> str:
        if self.field == "derived_from":
            return f"derived from {self.value}"
        return f"{self.field} {self.op} {self.value}"


@dataclass(frozen=True)
class SelectStatement:
    columns: tuple[ColumnRef, ...]
    items: tuple[FromItem, ...]
    conditions: tuple[Condition, ...] = ()
    lifecycle: tuple[LifecycleFilter, ...] = ()

    def __str__(self) -> str:
        sql = "select " + ", ".join(map(str, self.columns))
        sql += " from " + ", ".join(map(str, self.items))
        if self.conditions:
            sql += " where " + " and ".join(map(str, self.conditions))
        if self.lifecycle:
            sql += " with " + " and ".join(map(str, self.lifecycle))
        return sql


@dataclass(frozen=True)
class InsertStatement:
    belief: BeliefSpec
    relation: str
    values: tuple[Any, ...]

    def __str__(self) -> str:
        prefix = f"{self.belief} " if self.belief.path or self.belief.negated else ""
        vals = ", ".join(_value_str(v) for v in self.values)
        return f"insert into {prefix}{self.relation} values ({vals})"


@dataclass(frozen=True)
class DeleteStatement:
    """``where`` conditions, or (``values`` not None) one full tuple."""

    belief: BeliefSpec
    relation: str
    conditions: tuple[Condition, ...] = ()
    values: tuple[Any, ...] | None = None

    def __str__(self) -> str:
        prefix = f"{self.belief} " if self.belief.path or self.belief.negated else ""
        sql = f"delete from {prefix}{self.relation}"
        if self.values is not None:
            sql += f" values ({', '.join(_value_str(v) for v in self.values)})"
        if self.conditions:
            sql += " where " + " and ".join(map(str, self.conditions))
        return sql


@dataclass(frozen=True)
class UpdateStatement:
    belief: BeliefSpec
    relation: str
    assignments: tuple[tuple[str, Any], ...]
    conditions: tuple[Condition, ...] = ()

    def __str__(self) -> str:
        prefix = f"{self.belief} " if self.belief.path or self.belief.negated else ""
        sets = ", ".join(f"{a} = {_value_str(v)}" for a, v in self.assignments)
        sql = f"update {prefix}{self.relation} set {sets}"
        if self.conditions:
            sql += " where " + " and ".join(map(str, self.conditions))
        return sql


Statement = Union[SelectStatement, InsertStatement, DeleteStatement, UpdateStatement]


def _value_str(value: Any) -> str:
    """Render a raw value slot that may hold a :class:`Placeholder`."""
    if isinstance(value, Placeholder):
        return "?"
    return format_value(value)


def _operand_placeholders(operand: Any) -> list[Placeholder]:
    return [operand] if isinstance(operand, Placeholder) else []


def statement_placeholders(statement: Statement) -> int:
    """Number of ``?`` parameters a statement takes.

    The parser numbers placeholders 0..n-1 left to right; this walk is the
    single arity source everything (compiler, binder, server) uses, and it
    verifies the indices it finds form exactly that contiguous range — a gap
    would mean a placeholder sits in a position this walk does not visit,
    which must fail loudly rather than silently shift bindings.
    """
    found: list[Placeholder] = []
    if isinstance(statement, SelectStatement):
        specs = [item.belief for item in statement.items]
    else:
        specs = [statement.belief]
    for spec in specs:
        for operand in spec.path:
            found += _operand_placeholders(operand)
    for value in getattr(statement, "values", None) or ():
        found += _operand_placeholders(value)
    if isinstance(statement, UpdateStatement):
        for _, value in statement.assignments:
            found += _operand_placeholders(value)
    for cond in getattr(statement, "conditions", ()):
        found += _operand_placeholders(cond.left)
        found += _operand_placeholders(cond.right)
    for lf in getattr(statement, "lifecycle", ()):
        found += _operand_placeholders(lf.value)
    indices = {p.index for p in found}
    if indices != set(range(len(indices))):
        raise ParameterBindingError(
            f"placeholder indices {sorted(indices)} are not contiguous from "
            "0 — a ? sits in a position the binder does not reach"
        )
    return len(indices)


def check_parameters(expected: int, params: "Sequence[Any]") -> tuple[Any, ...]:
    """Validate a parameter vector: right arity, SQL-representable values.

    Only ``str``/``int``/``float`` may bind (the value domain of the external
    schema). Anything else — ``None``, bools, containers — is rejected up
    front: such values would execute but could not be rendered back as
    parseable BeliefSQL, so the replayable WAL record (and any textual
    round-trip) would silently break.
    """
    bound = tuple(params)
    if len(bound) != expected:
        raise ParameterBindingError(
            f"statement takes {expected} parameter(s), got {len(bound)}"
        )
    for position, value in enumerate(bound):
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ParameterBindingError(
                f"parameter {position} is {value!r}; only str/int/float "
                "values can bind to ? placeholders"
            )
        if isinstance(value, float) and not math.isfinite(value):
            raise ParameterBindingError(
                f"parameter {position} is {value!r}; non-finite floats have "
                "no BeliefSQL literal form"
            )
    return bound


def _bind_value(value: Any, params: tuple[Any, ...]) -> Any:
    if isinstance(value, Placeholder):
        return params[value.index]
    return value


def _bind_operand(operand: Operand, params: tuple[Any, ...]) -> Operand:
    if isinstance(operand, Placeholder):
        return Literal(params[operand.index])
    return operand


def _bind_spec(spec: BeliefSpec, params: tuple[Any, ...]) -> BeliefSpec:
    if not any(isinstance(p, Placeholder) for p in spec.path):
        return spec
    return BeliefSpec(
        tuple(_bind_operand(p, params) for p in spec.path), spec.negated
    )


def _bind_conditions(
    conditions: tuple[Condition, ...], params: tuple[Any, ...]
) -> tuple[Condition, ...]:
    return tuple(
        Condition(c.op, _bind_operand(c.left, params), _bind_operand(c.right, params))
        for c in conditions
    )


def bind_statement(statement: Statement, params: Sequence[Any]) -> Statement:
    """Substitute a parameter vector into a statement's placeholders.

    Returns an equivalent placeholder-free statement (useful for logging an
    executed statement as replayable SQL text). Raises
    :class:`~repro.errors.ParameterBindingError` on a parameter-count
    mismatch or a value that cannot be rendered as a BeliefSQL literal.
    """
    expected = statement_placeholders(statement)
    bound = check_parameters(expected, params)
    if not expected:
        return statement
    if isinstance(statement, SelectStatement):
        items = tuple(
            dataclasses.replace(item, belief=_bind_spec(item.belief, bound))
            for item in statement.items
        )
        lifecycle = tuple(
            dataclasses.replace(lf, value=_bind_operand(lf.value, bound))
            for lf in statement.lifecycle
        )
        return SelectStatement(
            statement.columns,
            items,
            _bind_conditions(statement.conditions, bound),
            lifecycle,
        )
    if isinstance(statement, InsertStatement):
        return InsertStatement(
            _bind_spec(statement.belief, bound),
            statement.relation,
            tuple(_bind_value(v, bound) for v in statement.values),
        )
    if isinstance(statement, DeleteStatement):
        return DeleteStatement(
            _bind_spec(statement.belief, bound),
            statement.relation,
            _bind_conditions(statement.conditions, bound),
            statement.values
            and tuple(_bind_value(v, bound) for v in statement.values),
        )
    return UpdateStatement(
        _bind_spec(statement.belief, bound),
        statement.relation,
        tuple((a, _bind_value(v, bound)) for a, v in statement.assignments),
        _bind_conditions(statement.conditions, bound),
    )
