"""An independent oracle: a stateful machine against its own model.

One eager, strict :class:`BeliefDBMS` is driven through BeliefSQL —
positive and negative inserts at depth <= 2, ``values`` and ``where``
deletes, updates, ``add_user`` and transactions that commit or abort on a
strict-mode conflict. The machine keeps its **own** model
:class:`BeliefDatabase` and applies each step to it by the paper's rules
(Def. 8(4) for what an insert may add; an update re-asserts the matching
beliefs of the entailed world, Def. 10). After every step:

* ``belief_database()`` equals the model, users included;
* ``check_invariants()`` holds;
* Def. 14 over the model answers a fixed set of BCQs — negative and
  variable-path subgoals among them — exactly as the engine, sqlite (on
  the pinned version's mirror) and the naive evaluator do.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.bdms.bdms import BeliefDBMS
from repro.bdms.dml import tuple_sql
from repro.core.closure import entailed_world
from repro.core.database import BeliefDatabase
from repro.core.schema import sightings_schema
from repro.core.statements import NEGATIVE, POSITIVE, BeliefStatement, Sign
from repro.errors import (
    InconsistencyError,
    RejectedUpdateError,
    TransactionAbortedError,
)
from repro.query.naive import evaluate_naive
from repro.query.parser import parse_bcq
from repro.query.sql_gen import evaluate_sql
from tests.strategies import budget

SCHEMA = sightings_schema()
FIRST_USERS = ("Ann", "Ben")
LATER_USERS = ("Cy", "Dee")
#: The Sightings columns a ``where`` names, by position.
COLUMNS = {"sid": 0, "species": 2}

#: Ann is uid 1 and Ben uid 2; a variable path ranges over every user.
QUERIES = tuple(
    parse_bcq(text, SCHEMA)
    for text in (
        "q(s, sp) :- [] Sightings+(s, u, sp, d, l)",
        "q(s, sp) :- [1] Sightings+(s, u, sp, d, l)",
        "q(s, sp) :- [2, 1] Sightings+(s, u, sp, d, l)",
        "q(s) :- [1] Sightings+(s, u, sp, d, l), [2] Sightings-(s, u, sp, d, l)",
        "q(s) :- [1, 2] Sightings-(s, u, sp, d, l), [] Sightings+(s, u, sp, d, l)",
        "q(x, s, sp) :- [x] Sightings+(s, u, sp, d, l)",
        "q(x, s) :- [1, x] Sightings+(s, u, sp, d, l), [x] Sightings-(s, u, sp, d, l)",
        "q(x, y, s) :- [x, y] Sightings+(s, u, sp, d, l), "
        "[y] Sightings-(s, u, 'crow', d, l)",
    )
)

_sids = st.sampled_from(("s0", "s1", "s2"))
_species = st.sampled_from(("crow", "raven"))
_signs = st.sampled_from((POSITIVE, NEGATIVE))


def _row(sid: str, species: str) -> tuple:
    return (sid, "u", species, "d", "l")


def _not(sign: Sign) -> str:
    return "not " if sign is NEGATIVE else ""


# ------------------------------------------------------------------ the model


def model_insert(model: BeliefDatabase, stmt: BeliefStatement) -> int:
    """Alg. 4's outcome by Def. 8(4): a duplicate or a statement that
    would make its explicit world inconsistent is rejected."""
    if stmt in model:
        return 0
    try:
        model.add(stmt)
    except InconsistencyError:
        return 0
    return 1


def model_delete(model: BeliefDatabase, stmt: BeliefStatement) -> int:
    return 1 if model.discard(stmt) else 0


def model_delete_where(model, path, sign, column, value) -> int:
    world = model.explicit_world(path)
    pool = world.positives if sign is POSITIVE else world.negatives
    doomed = [t for t in pool if t.values[COLUMNS[column]] == value]
    for t in doomed:
        model.discard(BeliefStatement(path, t, sign))
    return len(doomed)


def model_update(model, path, sign, species, sid) -> int:
    """Each belief of the entailed world matching ``sid`` is re-asserted
    with the new species: an explicit one is replaced, an implicit one
    overridden; the count is the re-assertions Def. 8(4) lets in."""
    world = entailed_world(model, path)
    pool = world.positives if sign is POSITIVE else world.negatives
    count = 0
    for t in sorted((t for t in pool if t.values[0] == sid), key=repr):
        replacement = SCHEMA.replace(t, species=species)
        if replacement == t:
            continue
        model.discard(BeliefStatement(path, t, sign))
        count += model_insert(model, BeliefStatement(path, replacement, sign))
    return count


class ModelMachine(RuleBasedStateMachine):
    @initialize()
    def start(self):
        self.db = BeliefDBMS(SCHEMA, strict=True)
        self.model = BeliefDatabase(schema=SCHEMA)
        self.names: list[str] = []
        for name in FIRST_USERS:
            self._add_user(name)

    def teardown(self):
        self.db.close()

    def _add_user(self, name: str) -> None:
        self.model.register_user(self.db.add_user(name))
        self.names.append(name)

    # --------------------------------------------------------------- draws

    def _path(self, data) -> tuple[str, ...]:
        """Names of a valid path of depth <= 2 (no user twice in a row)."""
        first = data.draw(st.sampled_from(self.names), label="user")
        others = [name for name in self.names if name != first]
        return data.draw(
            st.sampled_from(((), (first,), (first, others[0]), (first, others[-1]))),
            label="path",
        )

    def _uids(self, names) -> tuple:
        return tuple(self.db.uid(name) for name in names)

    def _write(self, data):
        """One DML statement: ``(sql, params, apply to a model)``."""
        names = self._path(data)
        path, depth = self._uids(names), len(names)
        sign = data.draw(_signs, label="sign")
        kind = data.draw(
            st.sampled_from(("insert", "delete", "where", "update")), label="kind"
        )
        if kind in ("insert", "delete"):
            row = _row(data.draw(_sids), data.draw(_species))
            stmt = BeliefStatement(path, SCHEMA.tuple("Sightings", *row), sign)
            apply = model_insert if kind == "insert" else model_delete
            sql = tuple_sql(kind, depth, "Sightings", len(row), sign)
            return sql, (*names, *row), lambda model: apply(model, stmt)
        belief = "BELIEF ? " * depth + _not(sign)
        if kind == "where":
            column = data.draw(st.sampled_from(sorted(COLUMNS)), label="column")
            value = data.draw(_sids if column == "sid" else _species)
            sql = f"delete from {belief}Sightings where {column} = ?"
            return sql, (*names, value), lambda model: model_delete_where(
                model, path, sign, column, value
            )
        species, sid = data.draw(_species), data.draw(_sids)
        sql = f"update {belief}Sightings set species = ? where sid = ?"
        return sql, (*names, species, sid), lambda model: model_update(
            model, path, sign, species, sid
        )

    # --------------------------------------------------------------- rules

    @rule(data=st.data())
    def autocommit(self, data):
        sql, params, apply = self._write(data)
        expected = apply(self.model)
        rejected = expected == 0 and sql.startswith("insert")
        try:
            result = self.db.execute_sql(sql, params)
        except RejectedUpdateError:
            assert rejected, (sql, params)
        else:
            assert not rejected, (sql, params)
            assert result.rowcount == expected, (sql, params)

    @rule(data=st.data())
    def transaction(self, data):
        writes = [self._write(data) for _ in range(data.draw(st.integers(1, 4)))]
        staged = BeliefDatabase(
            self.model.statements(), schema=SCHEMA, users=self.model.all_users()
        )
        counts = [apply(staged) for _, _, apply in writes]
        aborts = any(
            count == 0 and sql.startswith("insert")
            for (sql, _, _), count in zip(writes, counts)
        )
        txn = self.db.begin_transaction()
        for sql, params, _ in writes:
            txn.stage(self.db.prepare(sql), params)
        try:
            result = self.db.commit_transaction(txn)
        except TransactionAbortedError as exc:
            assert aborts and isinstance(exc.__cause__, RejectedUpdateError)
        else:
            assert not aborts
            assert result.rowcount == sum(counts)
            self.model = staged

    @precondition(lambda self: len(self.names) < len(FIRST_USERS + LATER_USERS))
    @rule()
    def add_user(self):
        self._add_user(LATER_USERS[len(self.names) - len(FIRST_USERS)])

    # ---------------------------------------------------------- invariants

    @invariant()
    def matches_the_model(self):
        db, model = self.db, self.model
        explicit = db.belief_database()
        assert explicit.statements() == model.statements()
        assert explicit.all_users() == model.all_users()
        assert db.annotation_count() == len(model)
        db.store.check_invariants()
        users = db.users()
        with db.read_view() as pinned:
            for query in QUERIES:
                expected = evaluate_naive(model, query, users=users)
                assert db.query(query, pinned) == expected, query
                with pinned.mirror_lock:
                    mirror = pinned.synced_mirror()
                    assert evaluate_sql(pinned.store, query, mirror) == expected
                assert evaluate_naive(explicit, query, users=users) == expected


TestModelMachine = ModelMachine.TestCase
TestModelMachine.settings = settings(budget(25), stateful_step_count=30)
