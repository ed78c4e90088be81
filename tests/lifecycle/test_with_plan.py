"""``WITH`` selects run as one translated program over the lifecycle relations.

The naive backend keeps the reference scan (explicit statements at the path
against the registry, a provenance walk per row); the engine, lazy and
sqlite backends run :func:`repro.query.translate.translate_with`'s rules
over the ``lifecycle`` and ``derives`` relations. They must agree on every
store a workload can build — tracked and untracked statements, explicit
negatives (``BELIEF 'x' not R ... with ...`` returns exactly the stated
negatives, never a statement that is merely not believed), deletes and
re-inserts, transitions and decay sweeps, late parents, user names and uids
as tokens, ``?`` filters beside WHERE conditions, a fork pinned before later
writes — and again wherever the relations are rebuilt with new world and
tuple ids: restore, WAL recovery, an aborted commit.
"""

from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bdms.bdms import BeliefDBMS
from repro.bdms.repl import BeliefShell
from repro.beliefsql.compiler import compile_select_prepared
from repro.beliefsql.parser import parse_beliefsql
from repro.core.schema import sightings_schema
from repro.errors import LifecycleError, TransactionAbortedError
from repro.lifecycle.model import STATUSES, belief_id, belief_key
from repro.query.explain import explain
from repro.storage.compaction import vacuum_star
from tests.strategies import budget
from tests.wal_oracle import durable_db, recovered_from_wal

USERS = ("Ann", "Ben", "Cy")  # uids 1, 2, 3
PATHS = ((), (1,), (2,), (1, 2))
SIDS = ("s1", "s2")
SPECIES = ("crow", "owl")
BACKENDS = ("engine", "lazy", "sqlite", "naive")


def _values(sid: str, species: str) -> tuple:
    return (sid, "u", species, "d", "l")


#: Every statement key the generated workloads can touch, and its belief id
#: — so a ``derived_from`` list can name a belief proposed later, or never.
KEYS = [
    (path, sid, species, sign)
    for path in PATHS
    for sid in SIDS
    for species in SPECIES
    for sign in "+-"
]
IDS = [
    belief_id(belief_key(path, "Sightings", _values(sid, species), sign))
    for path, sid, species, sign in KEYS
]
TOKENS = st.one_of(
    st.sampled_from(IDS), st.sampled_from(USERS), st.sampled_from((1, 2, 3)),
    st.just("Volunteer7"),
)
#: What a select asks DERIVED FROM: mostly belief ids.
ASKED = st.one_of(st.sampled_from(IDS), st.sampled_from(IDS), TOKENS)

_key = st.integers(0, len(KEYS) - 1)
_insert = st.tuples(st.just("insert"), _key)
OPS = st.one_of(
    _insert, _insert, _insert,
    st.tuples(st.just("delete"), _key),
    st.tuples(
        st.just("propose"), _key,
        st.one_of(st.none(), st.sampled_from(USERS)),
        st.sampled_from((0.3, 0.55, 0.8, 1.0)),
        st.sampled_from(("none", "linear:0.001", "exponential:100")),
        st.lists(TOKENS, max_size=3),
    ),
    st.tuples(
        st.just("transition"), _key, st.sampled_from(STATUSES),
        st.one_of(st.none(), st.sampled_from(STATUSES)),
    ),
    st.tuples(st.just("sweep")),
)


def _apply(db: BeliefDBMS, op: tuple, ts: float) -> None:
    kind = op[0]
    if kind == "sweep":
        db.lifecycle_decay_sweep(now=ts)
        return
    path, sid, species, sign = KEYS[op[1]]
    values = _values(sid, species)
    try:
        if kind == "insert":
            db.insert(path, "Sightings", values, sign)
        elif kind == "delete":
            db.delete(path, "Sightings", values, sign)
        elif kind == "propose":
            _, _, actor, confidence, decay, tokens = op
            db.lifecycle_propose(
                path, "Sightings", values, sign, actor=actor,
                confidence=confidence, decay=decay, derived_from=tokens, ts=ts,
            )
        else:
            _, _, to, expect = op
            db.lifecycle_transition(
                belief_id(belief_key(path, "Sightings", values, sign)), to,
                expect=expect, ts=ts,
            )
    except LifecycleError:  # conflicts, unknown beliefs: no state change
        pass


_filter = st.one_of(
    st.tuples(st.just("status"), st.sampled_from(("=", "<>")),
              st.sampled_from(STATUSES)),
    st.tuples(st.just("confidence"), st.sampled_from(("=", "<", ">=", "<>")),
              st.sampled_from((0.3, 0.5, 0.55, 0.8, 1.0))),
    st.tuples(st.just("derived"), st.just(""), ASKED),
)
SELECTS = st.tuples(
    st.sampled_from(PATHS + (("Ann", "Ben"), (2, 1), ("Nobody",), (1, 1))),
    st.booleans(),  # negated (only with a path)
    st.one_of(
        st.none(),
        st.tuples(st.just("s.species = ?"), st.sampled_from(SPECIES)),
        st.tuples(st.just("s.sid <> ?"), st.sampled_from(SIDS)),
        st.tuples(st.just("s.sid >= ?"), st.sampled_from(SIDS)),
    ),
    st.lists(_filter, min_size=1, max_size=3),
)


def _select(spec: tuple) -> tuple[str, list]:
    """BeliefSQL text and parameters: every constant travels as a ``?``."""
    path, negated, where, filters = spec
    params: list = list(path)
    sql = "select s.sid, s.species from " + "BELIEF ? " * len(path)
    sql += ("not " if negated and path else "") + "Sightings s"
    if where is not None:
        sql += f" where {where[0]}"
        params.append(where[1])
    terms = []
    for name, op, value in filters:
        terms.append("derived from ?" if name == "derived" else f"{name} {op} ?")
        params.append(value)
    return sql + " with " + " and ".join(terms), params


def _users(db: BeliefDBMS) -> BeliefDBMS:
    for name in USERS:
        db.add_user(name)
    return db


def _databases() -> dict[str, BeliefDBMS]:
    return {
        "engine": _users(BeliefDBMS(sightings_schema(), strict=False)),
        "lazy": _users(BeliefDBMS(sightings_schema(), strict=False, eager=False)),
        "sqlite": _users(
            BeliefDBMS(sightings_schema(), strict=False, backend="sqlite")
        ),
        "naive": _users(
            BeliefDBMS(sightings_schema(), strict=False, backend="naive")
        ),
    }


def _answers(db: BeliefDBMS, selects, version=None) -> list[list[tuple]]:
    return [
        db.execute_prepared(db.prepare(sql), params, version=version).rows
        for sql, params in selects
    ]


@budget(80)
@given(
    st.lists(OPS, min_size=10, max_size=50),
    st.lists(OPS, max_size=10),
    st.lists(SELECTS, min_size=4, max_size=10),
)
def test_every_backend_agrees_with_the_reference(ops, later, specs):
    dbs = _databases()
    assert dbs["lazy"].backend == "lazy"
    selects = [_select(spec) for spec in specs]
    for ts, op in enumerate(ops):
        for db in dbs.values():
            _apply(db, op, float(ts))
    reference = _answers(dbs["naive"], selects)
    for name in BACKENDS:
        assert _answers(dbs[name], selects) == reference, name
    # A fork pinned now answers for now, whatever the writer does next.
    pinned = {name: db.pin_version() for name, db in dbs.items()}
    try:
        for ts, op in enumerate(later, start=len(ops)):
            for db in dbs.values():
                _apply(db, op, float(ts))
        for name, db in dbs.items():
            assert _answers(db, selects, pinned[name]) == reference, name
    finally:
        for name, db in dbs.items():
            db.release_version(pinned[name])
    now = _answers(dbs["naive"], selects)
    for name in BACKENDS:
        assert _answers(dbs[name], selects) == now, name


# ------------------------------------------------------------- hand-built


ANN = ("Ann",)
GULL = _values("s1", "gull")
TERN = _values("s2", "tern")


def _seed(db: BeliefDBMS) -> dict[str, str]:
    """Tracked and untracked positives, a tracked explicit negative, and a
    late parent: ``child`` names ``late``'s id before ``late`` exists."""
    db.insert(ANN, "Sightings", GULL)
    db.insert(ANN, "Sightings", TERN)
    db.insert(ANN, "Sightings", _values("s3", "crow"))  # untracked
    db.insert(ANN, "Sightings", _values("s4", "owl"), "-")
    late = belief_id(belief_key((1,), "Sightings", TERN, "+"))
    child = db.lifecycle_propose(
        ANN, "Sightings", GULL, actor="Ben", confidence=0.9,
        derived_from=[late], ts=1.0,
    )["belief"]
    negative = db.lifecycle_propose(
        ANN, "Sightings", _values("s4", "owl"), "-", confidence=0.4,
        derived_from=["Cy"], ts=2.0,
    )["belief"]
    db.lifecycle_propose(
        ANN, "Sightings", TERN, actor="Cy", derived_from=["Volunteer7"],
        ts=3.0,
    )
    db.lifecycle_transition(child, "ACTIVE", ts=4.0)
    return {"child": child, "late": late, "negative": negative}


HAND_SELECTS = [
    ("select s.sid from BELIEF 'Ann' Sightings s with status = 'ACTIVE'", []),
    ("select s.sid from BELIEF 'Ann' Sightings s with status <> 'ACTIVE'", []),
    ("select s.sid from BELIEF 'Ann' Sightings s with confidence >= ?", [0.5]),
    ("select s.sid from BELIEF 'Ann' Sightings s with derived from ?", ["Volunteer7"]),
    ("select s.sid from BELIEF 'Ann' Sightings s with derived from Cy", []),
    ("select s.sid from BELIEF 'Ann' Sightings s with derived from ?", [3]),
    ("select s.sid from BELIEF 'Ann' not Sightings s with confidence < 1.0", []),
    ("select s.sid from BELIEF 'Ann' not Sightings s with status = 'ACTIVE'", []),
    (
        "select s.sid from BELIEF 'Ann' Sightings s "
        "where s.species <> 'crow' with status = ? and confidence > ?",
        ["ACTIVE", 0.2],
    ),
]


def _hand_answers(db: BeliefDBMS) -> list[list[tuple]]:
    return [db.execute_sql(sql, params).rows for sql, params in HAND_SELECTS]


EXPECTED = [
    [("s1",), ("s3",)],  # s3 has no record: ACTIVE
    [("s2",)],
    [("s1",), ("s2",), ("s3",)],
    [("s1",), ("s2",)],  # s1 through its late parent s2
    [("s1",), ("s2",)],  # Cy is s2's actor, uid 3; the negative s4 names
    [("s1",), ("s2",)],  # "Cy" too, but this select reads positives
    [("s4",)],
    [],  # the negative is PROPOSED; untracked positives are no negatives
    [("s1",)],
]


@pytest.mark.parametrize("backend", BACKENDS)
def test_hand_built_store(backend):
    db = _users(BeliefDBMS(sightings_schema(), strict=False, backend=backend))
    _seed(db)
    assert _hand_answers(db) == EXPECTED


def test_negative_select_returns_exactly_the_stated_negatives():
    db = _users(BeliefDBMS(sightings_schema(), strict=False))
    db.insert((), "Sightings", GULL)  # Ann believes it by default
    db.insert(ANN, "Sightings", TERN, "-")
    db.insert(("Ben",), "Sightings", _values("s3", "crow"), "-")
    # Ann believes s2 not; she does not believe s1 not, nor s3, nor
    # anything else she has no statement about: none of those is a row.
    sql = "select s.sid from BELIEF 'Ann' not Sightings s with confidence >= 0"
    assert db.execute_sql(sql).rows == [("s2",)]
    assert db.execute_sql(sql + " and status = 'ACTIVE'").rows == [("s2",)]


def test_relations_follow_deletes_and_reinserts():
    db = _users(BeliefDBMS(sightings_schema(), strict=False))
    ids = _seed(db)
    sql = "select s.sid from BELIEF 'Ann' Sightings s with derived from ?"
    db.delete(ANN, "Sightings", GULL)
    assert db.execute_sql(sql, [ids["late"]]).rows == [("s2",)]
    db.insert(ANN, "Sightings", GULL)
    assert db.execute_sql(sql, [ids["late"]]).rows == [("s1",), ("s2",)]
    vacuum_star(db.store)  # drops nothing here: every tuple is referenced
    assert db.execute_sql(sql, [ids["late"]]).rows == [("s1",), ("s2",)]


def test_vacuum_renumbering_keeps_records_attached():
    db = _users(BeliefDBMS(sightings_schema(), strict=False))
    ids = _seed(db)
    db.delete(ANN, "Sightings", GULL)
    assert vacuum_star(db.store).removed_tuples == 1  # GULL's tid is gone
    db.insert(ANN, "Sightings", GULL)  # ... and comes back as a new one
    db.versions.invalidate()
    sql = "select s.sid from BELIEF 'Ann' Sightings s with status = 'ACTIVE'"
    assert db.execute_sql(sql).rows == [("s1",), ("s3",)]
    sql = "select s.sid from BELIEF 'Ann' Sightings s with derived from ?"
    assert db.execute_sql(sql, [ids["child"]]).rows == [("s1",)]


def _rebuilt(store) -> list[tuple]:
    """The ``lifecycle`` relation as a rebuild from ``store``'s registry
    would write it."""
    rows = []
    for record in store.lifecycle.records():
        slot = store.statement_slot(record.key)
        if slot is not None:
            rows.append((*slot, record.key[3], record.belief_id, record.status,
                         record.confidence))
    return sorted(rows)


def test_a_sweep_writes_its_changed_rows_as_one_batch(monkeypatch):
    """Counted, not timed: k changed records are one delete batch and one
    insert batch on ``lifecycle``, never a row at a time; the live relation
    then equals a rebuild from the registry, and so does a fork pinned
    before the sweep — from its own registry, as it was."""
    db = _users(BeliefDBMS(sightings_schema(), strict=False))
    for i in range(12):
        values = _values(f"d{i}", SPECIES[i % 2])
        db.insert(ANN, "Sightings", values)
        db.lifecycle_propose(
            ANN, "Sightings", values, ts=0.0,
            decay="exponential:100" if i % 3 else "none",
        )
    table = db.store.engine.table("lifecycle")
    calls: Counter = Counter()
    for name in ("delete_rowids", "delete_rowid", "insert_many", "insert"):
        def counted(*args, _name=name, _method=getattr(table, name)):
            calls[_name] += 1
            return _method(*args)

        monkeypatch.setattr(table, name, counted)
    with db.read_view() as pinned:
        before = _rebuilt(pinned.store)
        assert db.lifecycle_decay_sweep(now=50.0) == {"swept": 8, "changed": 8}
        assert calls == {"delete_rowids": 1, "insert_many": 1}
        fork = pinned.store.engine.table("lifecycle")
        assert sorted(fork) == _rebuilt(pinned.store) == before
    assert sorted(table) == _rebuilt(db.store) != before
    assert len(table) == 12
    calls.clear()
    assert db.lifecycle_decay_sweep(now=50.0) == {"swept": 8, "changed": 0}
    assert calls["delete_rowid"] == calls["insert"] == 0
    assert sorted(table) == _rebuilt(db.store)


# --------------------------------------------------- rebuilt with new ids


def _renumbering_workload(db: BeliefDBMS) -> dict[str, str]:
    """_seed behind worlds and tuples a rebuild does not recreate or
    numbers after Ann's, so it gives Ann's world and tuples new ids."""
    _users(db)
    db.insert(("Ben",), "Sightings", _values("s8", "heron"))
    db.insert(("Cy", "Ann"), "Sightings", _values("s9", "heron"))
    db.delete(("Ben",), "Sightings", _values("s8", "heron"))
    ids = _seed(db)
    db.delete(ANN, "Sightings", TERN)
    db.insert(ANN, "Sightings", TERN)
    db.lifecycle_decay_sweep(now=50.0)
    return ids


def _ids(db: BeliefDBMS) -> tuple:
    store = db.store
    return (
        store.wid_for_path((1,)),
        store.tid_for(db.schema.tuple("Sightings", *GULL)),
        store.tid_for(db.schema.tuple("Sightings", *TERN)),
    )


def test_restore_rebuilds_the_relations(tmp_path):
    db = durable_db(sightings_schema(), tmp_path / "d")
    _renumbering_workload(db)
    before, ids = _hand_answers(db), _ids(db)
    db.checkpoint()
    db.restore()
    assert _ids(db) != ids  # restore renumbered ...
    assert _hand_answers(db) == before  # ... and the answers stand
    db.close()


def test_wal_recovery_rebuilds_the_relations(tmp_path):
    db = durable_db(sightings_schema(), tmp_path / "d")
    _renumbering_workload(db)
    before = _hand_answers(db)
    with recovered_from_wal(db) as recovered:
        assert _hand_answers(recovered) == before


def test_an_aborted_commit_rebuilds_the_relations():
    db = BeliefDBMS(sightings_schema(), strict=True)
    _renumbering_workload(db)
    before, ids = _hand_answers(db), _ids(db)
    txn = db.begin_transaction()
    insert = db.prepare("insert into BELIEF ? Sightings values (?,?,?,?,?)")
    txn.stage(insert, ("Ben", *_values("s7", "rail")))
    txn.stage(insert, ("Ann", *GULL))  # a duplicate: strict mode rejects it
    with pytest.raises(TransactionAbortedError):
        db.commit_transaction(txn)
    assert _ids(db) != ids  # the rollback rebuild renumbered ...
    assert _hand_answers(db) == before  # ... and the answers stand


def test_records_are_not_part_of_r_star():
    """Sect. 5.4's |R*| counts the internal schema, not annotations about
    annotations: proposing changes neither it nor the per-table counts."""
    db = _users(BeliefDBMS(sightings_schema(), strict=False))
    for sid, species in itertools.product(SIDS, SPECIES):
        db.insert(ANN, "Sightings", _values(sid + species, species))
    overhead, counts = db.relative_overhead(), db.store.row_counts()
    for sid, species in itertools.product(SIDS, SPECIES):
        db.lifecycle_propose(
            ANN, "Sightings", _values(sid + species, species),
            derived_from=["Ben"],
        )
    assert db.relative_overhead() == overhead
    assert db.store.row_counts() == counts
    assert "lifecycle" not in counts and "derives" not in counts
    assert len(db.store.engine.table("lifecycle")) == len(SIDS) * len(SPECIES)
    stats = db.snapshot_stats()
    assert stats["row_counts"] == counts and stats["total_rows"] == db.size()


# ------------------------------------------------------------------ EXPLAIN


def _bound(db: BeliefDBMS, sql: str, params=()):
    return compile_select_prepared(parse_beliefsql(sql), db.schema).bind(params)


def _curation_like_store() -> tuple[BeliefDBMS, list[str]]:
    """Enough rows that every table has its indexes in play."""
    db = _users(BeliefDBMS(sightings_schema(), strict=False))
    ids: list[str] = []
    for i in range(120):
        path = (USERS[i % 3],)
        values = _values(f"c{i}", SPECIES[i % 2])
        db.insert(path, "Sightings", values)
        parent = [ids[i - 3]] if i >= 3 and i % 4 else []
        ids.append(db.lifecycle_propose(
            path, "Sightings", values, actor=USERS[(i + 1) % 3],
            derived_from=["Volunteer7", *parent], ts=float(i),
        )["belief"])
    return db, ids


def test_explain_pins_the_derived_from_plan():
    db, ids = _curation_like_store()
    select = _bound(
        db, "select s.sid from BELIEF ? Sightings s with derived from ?",
        ("Ann", ids[3]),
    )
    report = explain(db.store, select, analyze=True)
    text = report.render()
    assert report.sql is None and report.result_size == 3  # c3, c6, c9
    assert len(report.datalog_rules) == 2  # the closure, the record's own id
    assert "not lifecycle" not in text  # untracked rows never match
    closure_plan = next(step for step in report.plan if "derives[" in step)
    steps = closure_plan.split(": ", 1)[1].split(" -> ")
    assert steps[0].startswith("E[wid1, uid] index(wid1, uid)")
    assert steps[2].startswith("derives[wid, token, s] index(wid, token)")
    assert all(not step.startswith("v_Sightings") for step in steps[:3])
    for word in ("scan", "build(", "temporary"):
        assert word not in text


def test_explain_shows_the_untracked_rule():
    """Without DERIVED FROM, a guard on F(ACTIVE, 1.0) — parameters only —
    lets one rule read rows: the tracked one where an untracked statement
    would fail F, else one scan of the world minus the records that fail."""
    db, _ = _curation_like_store()
    sql = "select s.sid from BELIEF 'Ann' Sightings s with status = ?"
    report = explain(db.store, _bound(db, sql, ("ACTIVE",)), analyze=True)
    tracked, one_scan = report.datalog_rules
    assert tracked.endswith(
        "lifecycle(w0, tid, '+', belief, 'ACTIVE', confidence), "
        "(not ('ACTIVE' = 'ACTIVE'))"
    )
    assert one_scan.endswith(
        "('ACTIVE' = 'ACTIVE'), "
        "not (lifecycle(w0, tid, '+', _, status, _), (not (status = 'ACTIVE')))"
    )
    assert tracked.startswith("Q_result(a0) :- E(0, ?0, w0), D(w0, 1), ")
    assert report.values == [1]  # Ann, resolved when the select runs
    # The tracked rule's guard failed before its first probe: no row read.
    assert report.plan[0].startswith(
        "Q_result: E[wid1, uid] index(wid1, uid) (0 rows) -> "
    )
    assert "lifecycle[wid, s, status] index(wid, status)" in report.plan[0]
    assert report.plan[1].startswith(
        "Q_result: E[wid1, uid] index(wid1, uid) (1 rows) -> "
    )
    assert report.plan[1].endswith(" -> not lifecycle[wid, tid, s] key+test(status)")
    assert report.result_size == 0  # nothing is ACTIVE yet
    proposed = explain(db.store, _bound(db, sql, ("PROPOSED",)), analyze=True)
    assert proposed.plan[1].startswith(
        "Q_result: E[wid1, uid] index(wid1, uid) (0 rows)"
    )
    assert proposed.result_size == 40  # Ann's c0, c3, ...: all PROPOSED


def test_repl_explains_a_with_select():
    shell = BeliefShell(BeliefDBMS(sightings_schema(), strict=False))
    shell.feed("\\adduser Ann")
    out = shell.feed(
        "\\explain select s.sid from BELIEF 'Ann' Sightings s "
        "with confidence >= 0.5"
    )
    assert "do not compile to a BCQ" not in out
    assert "Plan (join order" in out and "not lifecycle[" in out
