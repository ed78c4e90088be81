"""Belief databases ``D`` (Def. 8) — sets of belief statements.

A belief database is a set of belief statements ``w t^s``. It induces:

* the *explicit belief world* ``D_w = (I+_w, I−_w)`` at every path ``w`` —
  the statements literally annotated at ``w`` (Def. 8(3));
* the *support* ``Supp(D)`` — paths with at least one explicit statement —
  and the *states* ``States(D)`` — all prefixes of support paths (Sect. 4);
* consistency: ``D`` is consistent iff every ``D_w`` is (Def. 8(4));
* the theory ``D̄`` (Def. 9/10), computed by :mod:`repro.core.closure`.

The class is mutable (annotations accumulate over time); entailed-world caches
are invalidated on every mutation via a version counter.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

from repro.core.paths import (
    ROOT_PATH,
    BeliefPath,
    User,
    prefixes,
    validate_path,
)
from repro.core.schema import ExternalSchema, GroundTuple, Value
from repro.core.statements import NEGATIVE, POSITIVE, BeliefStatement, Sign
from repro.core.worlds import BeliefWorld
from repro.errors import InconsistencyError, SchemaError


class BeliefDatabase:
    """A mutable set of belief statements with world/state bookkeeping.

    Parameters
    ----------
    statements:
        Initial statements; added through :meth:`add` (with consistency checks).
    schema:
        Optional external schema; when given, tuples are validated against it.
    users:
        Users registered up front (``U``). Users appearing in statement paths
        are registered automatically; registering extra users matters because
        a user with no annotations still has a belief world (all defaults) and
        still contributes Kripke edges — the "Dora" case of Sect. 3.2.
    """

    def __init__(
        self,
        statements: Iterable[BeliefStatement] = (),
        schema: ExternalSchema | None = None,
        users: Iterable[User] = (),
    ) -> None:
        self.schema = schema
        self._statements: set[BeliefStatement] = set()
        self._positives: dict[BeliefPath, set[GroundTuple]] = defaultdict(set)
        self._negatives: dict[BeliefPath, set[GroundTuple]] = defaultdict(set)
        self._registered_users: set[User] = set(users)
        self.version = 0
        #: Cache for entailed worlds, managed by repro.core.closure.
        self._entailed_cache: dict[BeliefPath, BeliefWorld] = {}
        for stmt in statements:
            self.add(stmt)

    # -- mutation ------------------------------------------------------------

    def add(self, stmt: BeliefStatement, check: bool = True) -> None:
        """Add a statement; with ``check`` (default) enforce Def. 8(4) locally.

        Raises :class:`InconsistencyError` if the statement would make its
        explicit world inconsistent (Γ1/Γ2 at ``stmt.path``).
        """
        validate_path(stmt.path)
        if self.schema is not None:
            self.schema.validate(stmt.tuple)
        if stmt in self._statements:
            return
        if check:
            self._check_addition(stmt)
        self._statements.add(stmt)
        side = self._positives if stmt.sign is POSITIVE else self._negatives
        side[stmt.path].add(stmt.tuple)
        self._registered_users.update(stmt.path)
        self._touch()

    def _check_addition(self, stmt: BeliefStatement) -> None:
        pos = self._positives.get(stmt.path, ())
        neg = self._negatives.get(stmt.path, ())
        t = stmt.tuple
        if stmt.sign is POSITIVE:
            if t in neg:
                raise InconsistencyError(
                    f"Γ2: {t} is already explicitly negative at this path"
                )
            clash = next((p for p in pos if p.same_key(t) and p != t), None)
            if clash is not None:
                raise InconsistencyError(
                    f"Γ1: positive tuple {clash} already holds key {t.key!r}"
                )
        else:
            if t in pos:
                raise InconsistencyError(
                    f"Γ2: {t} is already explicitly positive at this path"
                )

    def discard(self, stmt: BeliefStatement) -> bool:
        """Remove a statement if present; return whether it was present."""
        if stmt not in self._statements:
            return False
        self._statements.remove(stmt)
        side = self._positives if stmt.sign is POSITIVE else self._negatives
        bucket = side[stmt.path]
        bucket.discard(stmt.tuple)
        if not bucket:
            del side[stmt.path]
        self._touch()
        return True

    def register_user(self, user: User) -> None:
        if user not in self._registered_users:
            self._registered_users.add(user)
            self._touch()

    def _touch(self) -> None:
        self.version += 1
        self._entailed_cache.clear()

    # -- set interface ---------------------------------------------------------

    def __contains__(self, stmt: BeliefStatement) -> bool:
        return stmt in self._statements

    def __iter__(self) -> Iterator[BeliefStatement]:
        return iter(self._statements)

    def __len__(self) -> int:
        return len(self._statements)

    def statements(self) -> frozenset[BeliefStatement]:
        return frozenset(self._statements)

    # -- worlds and states (Def. 8, Sect. 4) ------------------------------------

    def explicit_world(self, path: BeliefPath) -> BeliefWorld:
        """``D_w``: the explicit belief world at ``path`` (Def. 8(3))."""
        return BeliefWorld(
            frozenset(self._positives.get(path, ())),
            frozenset(self._negatives.get(path, ())),
        )

    def explicit_signs(self, path: BeliefPath) -> set[tuple[GroundTuple, Sign]]:
        """The (tuple, sign) pairs explicitly annotated at ``path``."""
        out: set[tuple[GroundTuple, Sign]] = set()
        for t in self._positives.get(path, ()):
            out.add((t, POSITIVE))
        for t in self._negatives.get(path, ()):
            out.add((t, NEGATIVE))
        return out

    def support(self) -> frozenset[BeliefPath]:
        """``Supp(D)``: paths with a non-empty explicit world."""
        return frozenset(self._positives.keys() | self._negatives.keys())

    def states(self) -> frozenset[BeliefPath]:
        """``States(D)``: the prefix closure of the support (always has ε)."""
        out: set[BeliefPath] = {ROOT_PATH}
        for path in self.support():
            out.update(prefixes(path))
        return frozenset(out)

    def all_users(self) -> frozenset[User]:
        """Registered users plus all users mentioned in any belief path."""
        return frozenset(self._registered_users)

    def max_depth(self) -> int:
        """The maximum nesting depth ``d`` over all statements (0 if empty)."""
        return max((len(p) for p in self.support()), default=0)

    # -- consistency (Def. 8(4)) -------------------------------------------------

    def is_consistent(self) -> bool:
        return all(
            self.explicit_world(path).is_consistent() for path in self.support()
        )

    def check_consistent(self) -> "BeliefDatabase":
        for path in self.support():
            try:
                self.explicit_world(path).check_consistent()
            except InconsistencyError as exc:
                raise InconsistencyError(f"at belief path {path!r}: {exc}") from exc
        return self

    # -- active domain (used by the naive query evaluator) -------------------------

    def all_tuples(self) -> frozenset[GroundTuple]:
        """Every ground tuple mentioned by any statement."""
        return frozenset(stmt.tuple for stmt in self._statements)

    def constants_by_column(self, relation: str) -> list[set[Value]]:
        """Active-domain constants per attribute position of ``relation``."""
        arity = None
        if self.schema is not None and relation in self.schema:
            arity = self.schema.relation(relation).arity
        columns: list[set[Value]] = [set() for _ in range(arity or 0)]
        for t in self.all_tuples():
            if t.relation != relation:
                continue
            if len(columns) < len(t.values):
                columns.extend(set() for _ in range(len(t.values) - len(columns)))
            for i, v in enumerate(t.values):
                columns[i].add(v)
        return columns

    def __str__(self) -> str:
        lines = sorted(str(s) for s in self._statements)
        return "BeliefDatabase{\n  " + "\n  ".join(lines) + "\n}"


def database_from_statements(
    statements: Iterable[BeliefStatement],
    schema: ExternalSchema | None = None,
    users: Iterable[User] = (),
) -> BeliefDatabase:
    """Convenience constructor mirroring ``BeliefDatabase(...)``."""
    return BeliefDatabase(statements, schema=schema, users=users)
