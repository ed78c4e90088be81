"""Reference evaluator for BCQs, straight from Def. 14.

The answer to ``q`` on ``D`` is ``{θ(x̄) | θ: var(Φ) → const, D |= θ(Φ)}``:
every valuation of the body variables whose instantiated statements are all
entailed contributes a head tuple. This evaluator works directly on the core
:class:`BeliefDatabase` via the closure — no canonical representation, no
translation — and is the semantic yardstick every other evaluation path
(translated Datalog, generated SQL, lazy store) is tested against.

It is a backtracking join rather than a blind enumeration of the full active
domain (which would be hopeless even on tests): user atoms and positive
subgoals bind variables by enumerating entailed worlds and their positive
tuples; negative subgoals and arithmetic predicates then check (enumerating
only their unbound *path* variables, which safety allows). Both formulations
compute exactly Def. 14's set.

It also doubles as the *lazy-mode* query processor (Sect. 6.3's future-work
alternative): when only explicit annotations are materialized, entailed worlds
are reconstructed on the fly by the closure's suffix-chain walk, which is
precisely what this evaluator does (see :mod:`repro.query.lazy`).

:func:`evaluate_naive_with` is the same yardstick for a select with a
``WITH`` lifecycle clause: a scan of the explicit statements at the path
against the lifecycle registry, walking each record's provenance — the
reference the translated plan (:func:`repro.query.translate.translate_with`)
is checked against.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from repro.core.closure import entailed_world
from repro.core.database import BeliefDatabase
from repro.core.paths import User, is_valid_path
from repro.core.schema import GroundTuple
from repro.core.statements import POSITIVE
from repro.core.worlds import BeliefWorld
from repro.errors import QueryError, UnknownUserError
from repro.lifecycle.model import ACTIVE, belief_key
from repro.query.bcq import (
    Arith,
    BCQuery,
    LifecycleSelect,
    ModalSubgoal,
    Term,
    UserAtom,
    Variable,
    is_var,
)
from repro.relational.expressions import compare

if TYPE_CHECKING:  # pragma: no cover — type-only import (avoids a cycle)
    from repro.storage.store import BeliefStore

Bindings = dict[str, Any]


def evaluate_naive(
    db: BeliefDatabase,
    query: BCQuery,
    users: Mapping[User, str] | None = None,
) -> set[tuple]:
    """Evaluate ``query`` against ``db`` per Def. 14; returns a set of tuples.

    ``users`` maps user ids to display names (the users catalog). When
    omitted, the database's registered users are used with ``str(uid)`` names.
    Path constants may be user ids or display names.
    """
    query.check_safe(db.schema)
    if users is None:
        users = {uid: str(uid) for uid in db.all_users()}
    evaluator = _Evaluator(db, query, dict(users))
    return set(evaluator.run())


def evaluate_naive_with(
    store: "BeliefStore", select: LifecycleSelect
) -> set[tuple]:
    """Answer a bound ``WITH`` select by scanning the explicit statements.

    Every explicit statement of the select's relation and sign at exactly
    its path that passes the WHERE comparisons is looked up in the
    lifecycle registry — no record counts as ACTIVE, 1.0 and an empty
    closure — and kept if every filter holds; ``DERIVED FROM x`` holds
    when ``x``, or the user id it names, is among the record's
    :meth:`~repro.lifecycle.registry.LifecycleRegistry.derivation_tokens`.
    An unknown user in the path has no world, hence no answer.
    """
    try:
        path = tuple(store.resolve_user(user) for user in select.path)
    except UnknownUserError:
        return set()
    registry = store.lifecycle
    rows = set()
    for t, sign in store.explicit_db.explicit_signs(path):
        if t.relation != select.relation or sign is not select.sign:
            continue
        if not all(
            compare(
                op,
                t.values[li] if li is not None else lv,
                t.values[ri] if ri is not None else rv,
            )
            for op, li, lv, ri, rv in select.where
        ):
            continue
        record = registry.get(belief_key(path, t.relation, t.values, str(sign)))
        status, confidence = (
            (ACTIVE, 1.0) if record is None else (record.status, record.confidence)
        )
        for name, op, value in select.filters:
            if name == "status":
                ok = compare(op, status, value)
            elif name == "confidence":
                ok = compare(op, confidence, value)
            elif record is None:
                ok = False
            else:
                candidates = {value}
                try:
                    candidates.add(store.resolve_user(value))
                except UnknownUserError:
                    pass
                ok = not candidates.isdisjoint(registry.derivation_tokens(record))
            if not ok:
                break
        else:
            rows.add(tuple(t.values[i] for i in select.head))
    return rows


class _Evaluator:
    def __init__(
        self, db: BeliefDatabase, query: BCQuery, users: dict[User, str]
    ) -> None:
        self.db = db
        self.query = query
        self.users = users
        self.uid_by_name = {name: uid for uid, name in users.items()}
        positives = [sg for sg in query.subgoals if sg.is_positive]
        negatives = [sg for sg in query.subgoals if not sg.is_positive]
        # Binding phases: user atoms, then positive subgoals, then the path
        # variables of negative subgoals (a path position is a positive
        # occurrence per Def. 13, so negatives may introduce variables there),
        # and finally the negative checks themselves on fully-ground tuples.
        # Arithmetic predicates are checked as soon as they are fully bound.
        self.phases: list[object] = (
            list(query.user_atoms)
            + positives
            + [_PathBind(sg) for sg in negatives]
            + [_NegativeCheck(sg) for sg in negatives]
        )

    # -- helpers ---------------------------------------------------------

    def resolve_user_constant(self, value: Any) -> User | None:
        """Map a path constant to a registered uid (by id, then by name)."""
        if value in self.users:
            return value
        if isinstance(value, str) and value in self.uid_by_name:
            return self.uid_by_name[value]
        return None

    def _term_value(self, term: Term, env: Bindings) -> Any:
        if is_var(term):
            return env[term.name]
        return term

    def _predicates_ok(self, env: Bindings) -> bool:
        for pred in self.query.predicates:
            if pred.variables() <= env.keys():
                left = self._term_value(pred.left, env)
                right = self._term_value(pred.right, env)
                if not compare(pred.op, left, right):
                    return False
        return True

    # -- main loop -----------------------------------------------------------

    def run(self) -> Iterator[tuple]:
        for env in self._solve(0, {}):
            yield tuple(self._term_value(t, env) for t in self.query.head)

    def _solve(self, phase: int, env: Bindings) -> Iterator[Bindings]:
        if not self._predicates_ok(env):
            return
        if phase == len(self.phases):
            yield env
            return
        goal = self.phases[phase]
        if isinstance(goal, UserAtom):
            yield from self._solve_user_atom(goal, phase, env)
        elif isinstance(goal, _PathBind):
            for _, child in self._path_valuations(goal.subgoal.path, env):
                yield from self._solve(phase + 1, child)
        elif isinstance(goal, _NegativeCheck):
            yield from self._solve_negative(goal.subgoal, phase, env)
        else:
            assert isinstance(goal, ModalSubgoal)
            yield from self._solve_subgoal(goal, phase, env)

    def _solve_user_atom(
        self, atom: UserAtom, phase: int, env: Bindings
    ) -> Iterator[Bindings]:
        for uid, name in self.users.items():
            child = _extend(env, atom.uid, uid)
            if child is None:
                continue
            child = _extend(child, atom.name, name)
            if child is None:
                continue
            yield from self._solve(phase + 1, child)

    def _solve_subgoal(
        self, subgoal: ModalSubgoal, phase: int, env: Bindings
    ) -> Iterator[Bindings]:
        for path, path_env in self._path_valuations(subgoal.path, env):
            world = entailed_world(self.db, path)
            yield from self._match_positive(subgoal, phase, path_env, world)

    def _solve_negative(
        self, subgoal: ModalSubgoal, phase: int, env: Bindings
    ) -> Iterator[Bindings]:
        """Check a fully-bound negative subgoal (its _PathBind ran earlier)."""
        paths = list(self._path_valuations(subgoal.path, env))
        if not paths:
            return
        # All path terms are bound by now, so exactly one grounding remains.
        (path, child), = paths
        world = entailed_world(self.db, path)
        yield from self._match_negative(subgoal, phase, child, world)

    def _path_valuations(
        self, path_terms: tuple[Term, ...], env: Bindings
    ) -> Iterator[tuple[tuple[User, ...], Bindings]]:
        """All groundings of the path in ``Û*`` over registered users."""
        def recurse(
            index: int, prefix: list[User], current: Bindings
        ) -> Iterator[tuple[tuple[User, ...], Bindings]]:
            if index == len(path_terms):
                yield tuple(prefix), current
                return
            term = path_terms[index]
            if is_var(term) and term.name not in current:
                for uid in self.users:
                    if prefix and prefix[-1] == uid:
                        continue
                    child = dict(current)
                    child[term.name] = uid
                    prefix.append(uid)
                    yield from recurse(index + 1, prefix, child)
                    prefix.pop()
                return
            value = current[term.name] if is_var(term) else term
            uid = self.resolve_user_constant(value)
            if uid is None:
                return  # unknown user: no valuation exists (D̄ has no world)
            if prefix and prefix[-1] == uid:
                return  # adjacent repetition leaves Û* (Def. 8)
            prefix.append(uid)
            yield from recurse(index + 1, prefix, current)
            prefix.pop()

        yield from recurse(0, [], env)

    def _match_positive(
        self,
        subgoal: ModalSubgoal,
        phase: int,
        env: Bindings,
        world: BeliefWorld,
    ) -> Iterator[Bindings]:
        for t in world.positives:
            if t.relation != subgoal.relation:
                continue
            child = self._unify_tuple(subgoal.args, t, env)
            if child is not None:
                yield from self._solve(phase + 1, child)

    def _match_negative(
        self,
        subgoal: ModalSubgoal,
        phase: int,
        env: Bindings,
        world: BeliefWorld,
    ) -> Iterator[Bindings]:
        values = []
        for term in subgoal.args:
            if is_var(term):
                if term.name not in env:
                    raise QueryError(
                        f"negative subgoal {subgoal} evaluated with unbound "
                        f"variable {term.name!r}; the query is unsafe or the "
                        "planner ordered goals incorrectly"
                    )
                values.append(env[term.name])
            else:
                values.append(term)
        t = GroundTuple(subgoal.relation, tuple(values))
        if world.entails_negative(t):
            yield from self._solve(phase + 1, env)

    def _unify_tuple(
        self, args: tuple[Term, ...], t: GroundTuple, env: Bindings
    ) -> Bindings | None:
        if len(args) != len(t.values):
            return None
        child = env
        for term, value in zip(args, t.values):
            child = _extend(child, term, value)
            if child is None:
                return None
        return dict(child)


def _extend(env: Bindings, term: Term, value: Any) -> Bindings | None:
    """Bind ``term`` to ``value``; None on mismatch. Copy-on-write."""
    if is_var(term):
        bound = env.get(term.name, _MISSING)
        if bound is _MISSING:
            child = dict(env)
            child[term.name] = value
            return child
        return env if bound == value else None
    return env if term == value else None


class _Missing:
    __slots__ = ()


_MISSING = _Missing()


class _PathBind:
    """Planner goal: enumerate groundings of a negative subgoal's path."""

    __slots__ = ("subgoal",)

    def __init__(self, subgoal: ModalSubgoal) -> None:
        self.subgoal = subgoal


class _NegativeCheck:
    """Planner goal: test a negative subgoal once everything is bound."""

    __slots__ = ("subgoal",)

    def __init__(self, subgoal: ModalSubgoal) -> None:
        self.subgoal = subgoal
