"""A prepared select, executed many times, answers as its bound query does.

A compiled select translates and unfolds its template once and holds each
rule's plan beside the catalog it was compiled for
(:class:`repro.query.translate.TranslatedQuery`): an execution checks the
binding, resolves the path's users on the pinned version and runs the held
plans. What that could get wrong is what this suite varies between the
executions of the same prepared statements — parameter vectors (a user by
name, by uid, unknown, two adjacent path users that are one; DERIVED FROM a
belief id, a user, an unknown token; STATUS ACTIVE and not; CONFIDENCE on
both sides of 1.0; negative-sign ``WITH`` selects over untracked
statements, which a statement with no record must not enter: *not
believed* never becomes *believed not*), a user registered after prepare,
an index a live table adopts, a store replaced by restore() or by an
aborted commit — and each answer is checked against a fresh translation of
the bound query run as a plain program and against the naive evaluators
(Def. 14 for a BCQ, the reference scan for ``WITH``).

The counting tests pin what an execution no longer does: translate,
unfold, take a rule's shape, compile, or (on the sqlite backend) render
the program's SQL.
"""

from __future__ import annotations

import tempfile
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.durability import DurabilityManager
from repro.errors import LifecycleError, TransactionAbortedError
from repro.lifecycle.model import STATUSES, belief_id, belief_key
from repro.query import translate
from repro.query.bcq import LifecycleSelect
from repro.query.naive import evaluate_naive, evaluate_naive_with
from repro.query.parser import parse_bcq
from repro.query.translate import TranslatedQuery
from repro.relational import datalog
from repro.relational.datalog import plan_cache_stats
from tests.strategies import budget

USERS = ("Ann", "Ben")  # uids 1, 2
LATE = "Cy"  # uid 3, registered only after the statements are prepared
PATHS = ((), (1,), (2,), (1, 2))
SIDS = ("s1", "s2")
SPECIES = ("crow", "owl")
INSERT = "insert into BELIEF ? Sightings values (?,?,?,?,?)"


def _values(sid: str, species: str) -> tuple:
    return (sid, "u", species, "d", "l")


KEYS = [
    (path, sid, species, sign)
    for path in PATHS for sid in SIDS for species in SPECIES for sign in "+-"
]
IDS = [
    belief_id(belief_key(path, "Sightings", _values(sid, species), sign))
    for path, sid, species, sign in KEYS
]

USER = st.sampled_from(("Ann", "Ben", LATE, 1, 2, 3, "Nobody"))
STATUS = st.sampled_from(STATUSES)
CONFIDENCE = st.sampled_from((0.5, 0.9, 1.0, 1.5))
TOKEN = st.one_of(st.sampled_from(IDS), USER, st.just("Volunteer7"))
ADJACENT = st.one_of(
    st.tuples(USER, USER), st.sampled_from((("Ann", 1), ("Ben", "Ben"), (2, "Ben")))
)

#: Each prepared select, with what its parameters are drawn from.
SELECTS = (
    ("select S.sid, S.species from BELIEF ? Sightings as S", st.tuples(USER)),
    (
        "select S.sid from BELIEF ? Sightings as S where S.sid = ?",
        st.tuples(USER, st.sampled_from(SIDS)),
    ),
    ("select S.sid from BELIEF ? BELIEF ? Sightings as S", ADJACENT),
    ("select S.species from BELIEF 'Cy' Sightings as S", st.just(())),
    # A variable user: E is probed by wid1 alone, which only an adopted
    # index serves.
    (
        "select U.name, S.sid from Users as U, BELIEF U.uid Sightings as S "
        "where S.species = ?",
        st.tuples(st.sampled_from(SPECIES)),
    ),
    (
        "select s.sid, s.species from BELIEF ? Sightings s with status = ?",
        st.tuples(USER, STATUS),
    ),
    (
        "select s.sid from BELIEF ? Sightings s with confidence >= ?",
        st.tuples(USER, CONFIDENCE),
    ),
    (
        "select s.sid from BELIEF ? Sightings s with derived from ?",
        st.tuples(USER, TOKEN),
    ),
    (
        "select s.sid from BELIEF ? not Sightings s with confidence >= ?",
        st.tuples(USER, CONFIDENCE),
    ),
    (
        "select s.sid from BELIEF ? not Sightings s with status = ?",
        st.tuples(USER, STATUS),
    ),
    (
        "select s.sid from BELIEF ? BELIEF ? Sightings s "
        "with status <> ? and confidence < ?",
        st.tuples(USER, USER, STATUS, CONFIDENCE),
    ),
)

_key = st.integers(0, len(KEYS) - 1)
EVENTS = st.one_of(
    st.tuples(st.just("insert"), _key),
    st.tuples(st.just("insert"), _key),
    st.tuples(st.just("delete"), _key),
    st.tuples(
        st.just("propose"), _key, st.sampled_from((None, *USERS)),
        st.sampled_from((0.3, 0.8, 1.0)), st.sampled_from(("none", "exponential:100")),
        st.lists(TOKEN, max_size=2),
    ),
    st.tuples(st.just("transition"), _key, STATUS),
    st.just(("sweep",)),
    st.just(("add_user",)),
    st.tuples(
        st.just("index"),
        st.sampled_from(
            (("E", ("wid1",)), ("v_Sightings", ("key",)), ("lifecycle", ("status",)),
             ("star_Sightings", ("species",)), ("derives", ("token",)))
        ),
    ),
    st.just(("restore",)),
    st.just(("abort",)),
)


def _apply(db: BeliefDBMS, event: tuple, ts: float) -> None:
    kind = event[0]
    if kind == "sweep":
        db.lifecycle_decay_sweep(now=ts)
    elif kind == "add_user":
        if LATE not in db.users().values():
            db.add_user(LATE)
    elif kind == "index":  # the live table adopts an index mid-life
        table, columns = event[1]
        db.store.engine.table(table).create_index(columns)
    elif kind == "restore":  # a new store: new tables, new world and tuple ids
        db.restore()
    elif kind == "abort":  # the rollback rebuild replaces the store too
        txn = db.begin_transaction()
        insert = db.prepare(INSERT)
        txn.stage(insert, ("Ben", *_values("s9", "heron")))
        txn.stage(insert, ("Nobody", *_values("s9", "heron")))
        with pytest.raises(TransactionAbortedError):
            db.commit_transaction(txn)
    else:
        path, sid, species, sign = KEYS[event[1]]
        values = _values(sid, species)
        try:
            if kind == "insert":
                db.insert(path, "Sightings", values, sign)
            elif kind == "delete":
                db.delete(path, "Sightings", values, sign)
            elif kind == "propose":  # of the statement, inserted if need be
                _, _, actor, confidence, decay, tokens = event
                db.insert(path, "Sightings", values, sign)
                db.lifecycle_propose(
                    path, "Sightings", values, sign, actor=actor,
                    confidence=confidence, decay=decay, derived_from=tokens, ts=ts,
                )
            else:
                db.lifecycle_transition(IDS[event[1]], event[2], ts=ts)
        except LifecycleError:  # conflicts, unknown beliefs: no state change
            pass


def _seed(db: BeliefDBMS) -> None:
    """Ann's and Ben's worlds: positives tracked and untracked, an explicit
    negative each, actors, user names, uids and belief ids in closures."""
    ann_crow = _values("s1", "crow")
    for user, positives, negative in (
        ("Ann", (ann_crow, _values("s2", "owl")), _values("s1", "owl")),
        ("Ben", (_values("s1", "owl"), _values("s2", "crow")), _values("s2", "owl")),
    ):
        for values in positives:
            db.insert((user,), "Sightings", values)
        db.insert((user,), "Sightings", negative, "-")
    db.lifecycle_propose(("Ann",), "Sightings", ann_crow, actor="Ben",
                         derived_from=[2], ts=0.0)
    db.lifecycle_propose(("Ann",), "Sightings", _values("s1", "owl"), "-",
                         derived_from=["Ann"], confidence=0.8, ts=0.0)
    db.lifecycle_propose(("Ben",), "Sightings", _values("s1", "owl"), actor="Ann",
                         derived_from=[IDS[KEYS.index(((1,), "s1", "crow", "+"))]],
                         decay="exponential:100", ts=0.0)
    db.lifecycle_propose(("Ben",), "Sightings", _values("s2", "crow"),
                         derived_from=["Volunteer7"], confidence=0.5, ts=0.0)


def _fresh(store, query) -> set[tuple]:
    """A new translation of the bound query: nothing held from earlier runs."""
    return TranslatedQuery(query).run(store)


def _reference(store, query) -> set[tuple]:
    if isinstance(query, LifecycleSelect):
        return evaluate_naive_with(store, query)
    return evaluate_naive(store.explicit_db, query, users=store.users())


def _check(db: BeliefDBMS, prepared, params: tuple) -> None:
    with db.read_view() as version:
        rows = db.execute_prepared(prepared, params, version=version).rows
        bound = prepared.compiled.bind(params)
        expected = set() if bound is None else _reference(version.store, bound)
        fresh = set() if bound is None else _fresh(version.store, bound)
    assert len(rows) == len(set(rows)), prepared.sql
    assert set(rows) == fresh == expected, (prepared.sql, params)


@budget(20)
@given(st.data())
def test_a_prepared_select_answers_as_a_fresh_translation_and_the_reference(data):
    with tempfile.TemporaryDirectory() as directory:
        db = BeliefDBMS(
            sightings_schema(), strict=False,
            durability=DurabilityManager(directory, sync="off"),
        )
        try:
            for name in USERS:
                db.add_user(name)
            _seed(db)
            prepared = [db.prepare(sql) for sql, _ in SELECTS]
            events = data.draw(st.lists(EVENTS, min_size=6, max_size=16))
            for ts, event in enumerate(events):
                _apply(db, event, float(ts))
                for statement, (_, params) in zip(prepared, SELECTS):
                    for _ in range(2):
                        _check(db, statement, data.draw(params))
        finally:
            db.close()


# ------------------------------------------------------------ counted, not timed


@pytest.fixture
def calls(monkeypatch) -> Counter:
    """Calls of the translators, of ``unfold``, of the rule-shape taker
    and of the SQL renderer."""
    counts: Counter = Counter()
    for module, name in (
        (translate, "translate_bcq"), (translate, "translate_with"),
        (translate, "unfold"), (datalog, "_shape"), (translate, "program_sql"),
    ):
        def counted(*args, _name=name, _function=getattr(module, name), **kwargs):
            counts[_name] += 1
            return _function(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def _curated_db() -> tuple[BeliefDBMS, list[str]]:
    db = BeliefDBMS(sightings_schema(), strict=False)
    for name in USERS:
        db.add_user(name)
    ids = []
    for i in range(60):
        path = (USERS[i % 2],)
        values = _values(f"c{i}", SPECIES[i % 2])
        db.insert(path, "Sightings", values)
        if i % 3:
            parents = [ids[-1]] if ids else []
            ids.append(db.lifecycle_propose(
                path, "Sightings", values, derived_from=["Ben", *parents],
                ts=float(i),
            )["belief"])
    return db, ids


def _vectors(ids: list[str]) -> dict[str, list[tuple]]:
    return {
        "select S.sid, S.species from BELIEF ? Sightings as S where S.sid = ?": [
            ("Ann", f"c{i}") for i in range(0, 60, 2)
        ] + [(1, "c2"), ("Nobody", "c2")],
        "select S.sid from BELIEF ? BELIEF ? Sightings as S": [
            ("Ann", "Ben"), ("Ann", 1), (2, 1),
        ],
        "select s.sid from BELIEF ? Sightings s with status = ?": [
            (user, status) for user in USERS for status in STATUSES
        ],
        "select s.sid from BELIEF ? Sightings s with confidence >= ?": [
            ("Ann", 0.5), ("Ben", 1.0), ("Ann", 1.5),
        ],
        # Belief ids, a user, an unknown token: three variants, each
        # translated on its first execution and never again.
        "select s.sid from BELIEF ? Sightings s with derived from ?": [
            ("Ann", bid) for bid in ids[:10]
        ] + [("Ben", "Ben"), ("Ben", "Volunteer7")],
    }


@pytest.mark.parametrize("sql", list(_vectors([])))
def test_reexecuting_a_prepared_select_translates_and_compiles_nothing(calls, sql):
    db, ids = _curated_db()
    prepared = db.prepare(sql)
    vectors = _vectors(ids)[sql]
    answers = [db.execute_prepared(prepared, params).rows for params in vectors]
    assert calls["_shape"] > 0  # the first executions translated
    calls.clear()
    compiles = plan_cache_stats()["compiles"]
    for _ in range(5):
        assert [db.execute_prepared(prepared, p).rows for p in vectors] == answers
    assert sum(calls.values()) == 0, calls
    assert plan_cache_stats()["compiles"] == compiles


def test_one_query_object_is_translated_once(calls):
    db, _ = _curated_db()
    query = parse_bcq("q(s, sp) :- ['Ann'] Sightings+(s, u, sp, d, l)", db.schema)
    answer = db.query(query)
    assert answer and calls["translate_bcq"] == calls["unfold"] == 1
    calls.clear()
    compiles = plan_cache_stats()["compiles"]
    for _ in range(20):
        assert db.query(query) == answer
    # An equal object — the text parsed again — is the same cache entry.
    again = parse_bcq("q(s, sp) :- ['Ann'] Sightings+(s, u, sp, d, l)", db.schema)
    assert again is not query and db.query(again) == answer
    assert sum(calls.values()) == 0, calls
    assert plan_cache_stats()["compiles"] == compiles


def _lookups() -> int:
    stats = plan_cache_stats()
    return stats["compiles"] + stats["hits"]


def test_a_catalog_change_replans_instead_of_running_a_stale_plan():
    """A held plan runs only on the catalog it was compiled for: an index
    the live table adopts, a store an aborted commit rebuilt without it, or
    a pinned version's private index send the statement back to the plan
    cache. (A plan that reads the adopted index, run on the rebuilt store,
    would not find it.)"""
    db, _ = _curated_db()
    prepared = db.prepare(
        "select U.name, S.sid from Users as U, BELIEF U.uid Sightings as S "
        "where S.species = ?"
    )

    def ask(version=None) -> list[tuple]:
        return db.execute_prepared(prepared, ("crow",), version=version).rows

    expected = ask()
    assert len(expected) == 30  # Ann's crows
    before = _lookups()
    assert ask() == expected and _lookups() == before  # the held plan
    db.store.engine.table("E").create_index(("wid1",))  # E[wid1]: an index now
    db.versions.invalidate()
    assert ask() == expected and _lookups() == before + 1
    assert ask() == expected and _lookups() == before + 1
    _apply(db, ("abort",), 0.0)  # the rebuilt store's E has no such index
    assert ask() == expected and _lookups() == before + 2
    with db.read_view() as version:  # a version indexes a pattern for itself
        star = version.store.star_table("Sightings")
        assert len(list(star.match_named(species="crow"))) == 30
        assert ask(version) == expected and _lookups() == before + 3
        assert ask(version) == expected and _lookups() == before + 3


def _mirror_syncs(db: BeliefDBMS) -> int:
    mvcc = db.snapshot_stats()["mvcc"]
    return mvcc["mirror_syncs_full"] + mvcc["mirror_syncs_delta"]


def test_the_sqlite_backend_runs_sql_rendered_once(calls):
    """Every select on ``backend="sqlite"`` — a ``WITH`` select included —
    runs on the pinned version's mirror, from SQL rendered on the
    statement's first execution and never again: not for new parameters,
    not in a new write epoch."""
    db = BeliefDBMS(sightings_schema(), strict=False, backend="sqlite")
    for name in USERS:
        db.add_user(name)
    _seed(db)
    vectors = {
        "select S.sid, S.species from BELIEF ? Sightings as S where S.sid = ?": [
            ("Ann", "s1"), ("Ben", "s2"), (1, "s2"), ("Nobody", "s1"),
        ],
        "select s.sid from BELIEF ? Sightings s with status = ?": [
            (user, status) for user in (*USERS, 2) for status in STATUSES
        ],
    }
    prepared = {sql: db.prepare(sql) for sql in vectors}
    for sql, statement in prepared.items():
        db.execute_prepared(statement, vectors[sql][0])
    assert calls["program_sql"] == len(prepared)
    calls.clear()
    for epoch, (sql, statement) in enumerate(
        [item for item in prepared.items() for _ in range(3)]
    ):
        db.insert(("Ann",), "Sightings", _values(f"n{epoch}", "crow"))
        syncs = _mirror_syncs(db)
        for params in vectors[sql]:
            with db.read_view() as version:
                rows = db.execute_prepared(statement, params, version=version).rows
                bound = statement.compiled.bind(params)
                expected = set() if bound is None else _reference(version.store, bound)
            assert set(rows) == expected, (sql, params)
        assert _mirror_syncs(db) == syncs + 1, sql  # the new version's mirror
    assert sum(calls.values()) == 0, calls
