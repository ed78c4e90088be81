"""Belief conjunctive queries (BCQ) — Def. 13.

A BCQ is ``q(x̄) :- w̄1 R1^s1(x̄1), ..., w̄g Rg^sg(x̄g)`` plus optional
arithmetic predicates: each *modal subgoal* has a belief path (variables and/or
user constants), a sign, and a relational atom. We additionally support *user
atoms* over the users catalog (``Users(uid, name)`` in the running example) —
the paper's example queries join it freely (e.g. q1/q2 of Sect. 2); in the
internal schema it is the plain table ``U``, not a versioned relation.

Safety (Def. 13): every variable needs at least one *positive occurrence* — in
a belief path, in a positive subgoal's relational atom, or (by the natural
extension) in a user atom.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Iterator

from repro.core.schema import ExternalSchema
from repro.core.statements import NEGATIVE, POSITIVE, Sign
from repro.errors import LifecycleError, QueryError, UnsafeQueryError
from repro.lifecycle.model import check_status

_ARITH_OPS = ("=", "!=", "<>", "<=", ">=", "<", ">")


@dataclass(frozen=True)
class Variable:
    """A query variable; anything else in a term position is a constant."""

    name: str

    def __str__(self) -> str:
        return self.name


Term = Any  # Variable or a constant


def is_var(term: Term) -> bool:
    return isinstance(term, Variable)


def term_variables(terms: Iterable[Term]) -> frozenset[str]:
    return frozenset(t.name for t in terms if isinstance(t, Variable))


@dataclass(frozen=True)
class ModalSubgoal:
    """``w̄ R^s(x̄)`` — a modal subgoal (Def. 13)."""

    path: tuple[Term, ...]
    relation: str
    sign: Sign
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        for attr in ("path", "args"):
            value = getattr(self, attr)
            if isinstance(value, list):
                object.__setattr__(self, attr, tuple(value))

    @property
    def is_positive(self) -> bool:
        return self.sign is POSITIVE

    @property
    def depth(self) -> int:
        return len(self.path)

    def variables(self) -> frozenset[str]:
        return term_variables(self.path) | term_variables(self.args)

    def positive_variables(self) -> frozenset[str]:
        """Variables that count as positively occurring in this subgoal."""
        path_vars = term_variables(self.path)
        if self.sign is POSITIVE:
            return path_vars | term_variables(self.args)
        return path_vars

    def __str__(self) -> str:
        path = ", ".join(
            t.name if is_var(t) else repr(t) for t in self.path
        )
        args = ", ".join(t.name if is_var(t) else repr(t) for t in self.args)
        return f"[{path}] {self.relation}{self.sign}({args})"


@dataclass(frozen=True)
class UserAtom:
    """An atom over the users catalog: ``Users(uid, name)``."""

    uid: Term
    name: Term

    def variables(self) -> frozenset[str]:
        return term_variables((self.uid, self.name))

    def __str__(self) -> str:
        uid = self.uid.name if is_var(self.uid) else repr(self.uid)
        name = self.name.name if is_var(self.name) else repr(self.name)
        return f"Users({uid}, {name})"


@dataclass(frozen=True)
class Arith:
    """An arithmetic predicate ``t1 op t2`` with op in =, !=, <, <=, >, >=."""

    op: str
    left: Term
    right: Term

    def __post_init__(self) -> None:
        op = "!=" if self.op == "<>" else self.op
        if op not in ("=", "!=", "<", "<=", ">", ">="):
            raise QueryError(f"unknown arithmetic operator {self.op!r}")
        object.__setattr__(self, "op", op)

    def variables(self) -> frozenset[str]:
        return term_variables((self.left, self.right))

    def __str__(self) -> str:
        left = self.left.name if is_var(self.left) else repr(self.left)
        right = self.right.name if is_var(self.right) else repr(self.right)
        return f"{left} {self.op} {right}"


@dataclass(frozen=True)
class BCQuery:
    """A belief conjunctive query: head terms and a body (Def. 13).

    ``name`` is cosmetic (used in rendered forms). Construction validates
    shape only; call :meth:`check_safe` (or construct via the parser / the
    BDMS, which do) before evaluation.
    """

    head: tuple[Term, ...]
    subgoals: tuple[ModalSubgoal, ...]
    user_atoms: tuple[UserAtom, ...] = ()
    predicates: tuple[Arith, ...] = ()
    name: str = "q"

    def __post_init__(self) -> None:
        for attr in ("head", "subgoals", "user_atoms", "predicates"):
            value = getattr(self, attr)
            if isinstance(value, list):
                object.__setattr__(self, attr, tuple(value))
        if not self.subgoals and not self.user_atoms:
            raise QueryError("a query needs at least one subgoal")

    # -- variables ---------------------------------------------------------

    def variables(self) -> frozenset[str]:
        out: frozenset[str] = term_variables(self.head)
        for sg in self.subgoals:
            out |= sg.variables()
        for ua in self.user_atoms:
            out |= ua.variables()
        for p in self.predicates:
            out |= p.variables()
        return out

    def positive_variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for sg in self.subgoals:
            out |= sg.positive_variables()
        for ua in self.user_atoms:
            out |= ua.variables()
        return out

    # -- validation ---------------------------------------------------------

    def check_safe(self, schema: ExternalSchema | None = None) -> "BCQuery":
        """Enforce Def. 13 safety and (optionally) schema conformance."""
        positive = self.positive_variables()
        unsafe = self.variables() - positive
        if unsafe:
            raise UnsafeQueryError(
                f"variables without a positive occurrence: {sorted(unsafe)}"
            )
        if schema is not None:
            for sg in self.subgoals:
                rel = schema.relation(sg.relation)
                if schema.users_relation == sg.relation:
                    raise QueryError(
                        f"the users catalog {sg.relation!r} cannot carry "
                        "belief annotations; use a user atom"
                    )
                if len(sg.args) != rel.arity:
                    raise QueryError(
                        f"subgoal {sg} has {len(sg.args)} arguments, "
                        f"{sg.relation} has arity {rel.arity}"
                    )
        return self

    def __str__(self) -> str:
        head = ", ".join(t.name if is_var(t) else repr(t) for t in self.head)
        body: list[str] = [str(sg) for sg in self.subgoals]
        body += [str(ua) for ua in self.user_atoms]
        body += [str(p) for p in self.predicates]
        return f"{self.name}({head}) :- " + ", ".join(body)


#: A comparison over one relation's attributes: ``(op, left position, left
#: value, right position, right value)``, a position None where the operand
#: is the value.
Comparison = tuple[str, "int | None", Any, "int | None", Any]


@dataclass(frozen=True)
class LifecycleSelect:
    """A select with a ``WITH`` lifecycle clause (``docs/lifecycle.md``).

    It asks for the explicit statements of sign ``sign`` in ``relation`` in
    the world at exactly ``path`` (user ids or names) whose tuple passes
    every ``where`` comparison and whose lifecycle state passes every
    ``(field, op, value)`` of ``filters`` — ``status``, ``confidence`` or
    ``derived_from`` —, projected on the attribute positions ``head``, as
    a set. A statement with no lifecycle record counts as ACTIVE with
    confidence 1.0 and an empty derivation closure. Terms may be
    placeholders until :meth:`repro.beliefsql.compiler.
    CompiledLifecycleSelect.bind` substitutes and :meth:`checked` checks
    them.
    """

    path: tuple[Term, ...]
    relation: str
    sign: Sign
    head: tuple[int, ...]
    where: tuple[Comparison, ...] = ()
    filters: tuple[tuple[str, str, Any], ...] = ()

    def checked(self) -> "LifecycleSelect":
        """This select with its filter values checked (a STATUS must name
        a status, a CONFIDENCE be a number); raises :class:`LifecycleError`."""
        filters = []
        for name, op, value in self.filters:
            if name == "status":
                if not isinstance(value, str):
                    raise LifecycleError(
                        f"STATUS compares against a status name, got {value!r}"
                    )
                check_status(value)
            elif name == "confidence":
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise LifecycleError(
                        f"CONFIDENCE compares against a number, got {value!r}"
                    )
                value = float(value)
            filters.append((name, op, value))
        return replace(self, filters=tuple(filters))

    def __str__(self) -> str:
        """Attributes print as ``$position``."""

        def operand(position: int | None, value: Any) -> str:
            return f"${position}" if position is not None else repr(value)

        where = [
            f"{operand(li, lv)} {op} {operand(ri, rv)}"
            for op, li, lv, ri, rv in self.where
        ]
        filters = [
            f"derived from {value!r}" if name == "derived_from"
            else f"{name} {op} {value!r}"
            for name, op, value in self.filters
        ]
        return (
            f"select {', '.join(f'${i}' for i in self.head)} from "
            + "".join(f"BELIEF {user!r} " for user in self.path)
            + ("not " if self.sign is NEGATIVE else "")
            + self.relation
            + (f" where {' and '.join(where)}" if where else "")
            + f" with {' and '.join(filters)}"
        )


def var(name: str) -> Variable:
    """Shorthand constructor for a query variable."""
    return Variable(name)


def make_vars(names: str) -> tuple[Variable, ...]:
    """Split a whitespace-separated string into variables.

    >>> x, y = make_vars("x y")
    >>> x.name, y.name
    ('x', 'y')
    """
    return tuple(Variable(n) for n in names.split())
