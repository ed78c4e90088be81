"""Boolean/value expression trees of the Datalog layer.

Expressions are evaluated against an *environment* — a mapping from names to
values; the Datalog evaluator binds variable names. The grammar is what Algorithm 1's output needs: comparisons with the
operators ``=, !=, <, <=, >, >=`` combined by and/or/not, over variables and
constants (the nested disjunctions of negative subgoals, Sect. 5.2).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from repro.errors import EngineError

Env = Mapping[str, Any]

_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def compare(op: str, left: Any, right: Any) -> bool:
    """Comparison with a deterministic cross-type fallback.

    Equality works across types natively. For ordering comparisons between
    incomparable types (e.g. ``3 < 'x'``), fall back to ordering on
    ``(type name, repr)`` so sorting-style predicates stay total and
    deterministic — like SQLite's cross-type ordering, coarser but stable.
    """
    try:
        fn = _COMPARATORS[op]
    except KeyError:
        raise EngineError(f"unknown comparison operator {op!r}") from None
    try:
        return bool(fn(left, right))
    except TypeError:
        lk = (type(left).__name__, repr(left))
        rk = (type(right).__name__, repr(right))
        return bool(fn(lk, rk))


class Expr:
    """Base class for expression nodes."""

    def eval(self, env: Env) -> Any:
        raise NotImplementedError

    def variables(self) -> frozenset[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    value: Any

    def eval(self, env: Env) -> Any:
        return self.value

    def variables(self) -> frozenset[str]:
        return frozenset()

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Ref(Expr):
    """A reference to a name in the environment (column or variable)."""

    name: str

    def eval(self, env: Env) -> Any:
        try:
            return env[self.name]
        except KeyError:
            raise EngineError(f"unbound name {self.name!r} in expression") from None

    def variables(self) -> frozenset[str]:
        return frozenset((self.name,))

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Cmp(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise EngineError(f"unknown comparison operator {self.op!r}")

    def eval(self, env: Env) -> bool:
        return compare(self.op, self.left.eval(env), self.right.eval(env))

    def variables(self) -> frozenset[str]:
        return self.left.variables() | self.right.variables()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class And(Expr):
    items: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if isinstance(self.items, list):
            object.__setattr__(self, "items", tuple(self.items))

    def eval(self, env: Env) -> bool:
        return all(item.eval(env) for item in self.items)

    def variables(self) -> frozenset[str]:
        return frozenset().union(*(i.variables() for i in self.items)) \
            if self.items else frozenset()

    def __str__(self) -> str:
        return "(" + " and ".join(map(str, self.items)) + ")" if self.items else "true"


@dataclass(frozen=True)
class Or(Expr):
    items: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if isinstance(self.items, list):
            object.__setattr__(self, "items", tuple(self.items))

    def eval(self, env: Env) -> bool:
        return any(item.eval(env) for item in self.items)

    def variables(self) -> frozenset[str]:
        return frozenset().union(*(i.variables() for i in self.items)) \
            if self.items else frozenset()

    def __str__(self) -> str:
        return "(" + " or ".join(map(str, self.items)) + ")" if self.items else "false"


@dataclass(frozen=True)
class Not(Expr):
    item: Expr

    def eval(self, env: Env) -> bool:
        return not self.item.eval(env)

    def variables(self) -> frozenset[str]:
        return self.item.variables()

    def __str__(self) -> str:
        return f"(not {self.item})"


def conjunction(items: Iterable[Expr]) -> Expr:
    """Flatten a conjunction; empty input yields a true constant."""
    flat: list[Expr] = []
    for item in items:
        if isinstance(item, And):
            flat.extend(item.items)
        else:
            flat.append(item)
    if not flat:
        return Const(True)
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disjunction(items: Iterable[Expr]) -> Expr:
    """Flatten a disjunction; empty input yields a false constant."""
    flat: list[Expr] = []
    for item in items:
        if isinstance(item, Or):
            flat.extend(item.items)
        else:
            flat.append(item)
    if not flat:
        return Const(False)
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def eq(left: Expr, right: Expr) -> Cmp:
    return Cmp("=", left, right)


def neq(left: Expr, right: Expr) -> Cmp:
    return Cmp("!=", left, right)
