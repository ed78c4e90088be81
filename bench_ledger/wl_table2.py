"""``table2_queries``: the paper's seven Table 2 queries, embedded, one thread.

Phase ``engine``: rounds of the seven ``paper_queries()`` through
``BeliefDBMS.query`` on a read-only store. Phase ``sqlite``: the same store
on ``backend="sqlite"``, each round one insert (which bumps the epoch) plus
the five content queries ``q1,0..q1,4``, so every round pays one per-version
mirror sync. ``query`` and ``relational`` do nearly all the work;
``durability``, ``server`` and ``lifecycle`` do none.

The sqlite rounds leave ``q2`` and ``q3`` out: on the seed commit sqlite
takes 29.8 s and 37.6 s for them at n=2000 (0.16 s and 0.17 s at n=250,
so the plan is super-linear), which no run length here can hold. They are
still checked against the other backends on the n=200 oracle store.
"""

from __future__ import annotations

import gc
from typing import Any

import gen
import stats
from calibrate import Calibrator
from harness import PassResult, digest, self_rss_mb

NAME = "table2_queries"
WHY = (
    "query+relational only: the paper's 7 Table 2 queries on an n=2000 store, "
    "then the translate-to-SQL path paying one sqlite mirror sync per write epoch"
)

N_ANNOTATIONS = 2000
N_USERS = 10
DEPTHS = (0.5, 0.35, 0.15)
ORACLE_N = 200
#: Statements generated per accepted annotation wanted; rejects are rare.
STREAM_FACTOR = 1.1
SQLITE_INSERTS = 4000  # more fresh-key inserts than any run can consume
CONTENT_QUERIES = ("q1,0", "q1,1", "q1,2", "q1,3", "q1,4")


def _stream(n: int, seed: int) -> list[tuple]:
    return gen.annotation_stream(
        int(n * STREAM_FACTOR), N_USERS, "zipf", DEPTHS, seed
    )


def make_inputs(seed: int) -> dict[str, Any]:
    import random

    rng = random.Random(seed ^ 0x7AB1E2)
    fresh = [
        (f"x{i}", rng.randrange(1, N_USERS + 1), rng.choice(gen.SPECIES),
         f"{rng.randrange(1, 13)}-{rng.randrange(1, 29)}-08",
         rng.choice(gen.LOCATIONS))
        for i in range(SQLITE_INSERTS)
    ]
    inputs = {
        "store": _stream(N_ANNOTATIONS, seed),
        "oracle": _stream(ORACLE_N, seed),
        "fresh": fresh,
    }
    inputs["digest"] = digest(
        inputs["store"] + inputs["oracle"] + inputs["fresh"]
    )
    return inputs


def build_db(stream: list[tuple], n: int, backend: str):
    """Load ``n`` accepted annotations through ``BeliefDBMS.insert``."""
    from repro.bdms.bdms import BeliefDBMS
    from repro.core.schema import experiment_schema

    db = BeliefDBMS(experiment_schema(), backend=backend, strict=False)
    for uid in range(1, N_USERS + 1):
        db.add_user(name=f"user{uid}", uid=uid)
    accepted = 0
    for path, values, sign in stream:
        accepted += db.insert(path, "Sightings", values, sign)
        if accepted == n:
            return db
    raise RuntimeError(
        f"input stream exhausted at {accepted}/{n} accepted annotations"
    )


def _checks(result: PassResult, engine_db, sqlite_db, oracle_stream, queries) -> None:
    from repro.query.lazy import evaluate_lazy
    from repro.query.naive import evaluate_naive

    for name, query in queries.items():
        answers = {
            "engine": engine_db.query(query),
            "lazy": evaluate_lazy(engine_db.store, query),
        }
        if name in CONTENT_QUERIES:
            answers["sqlite"] = sqlite_db.query(query)
        result.check(
            f"backends_agree[{name}]",
            len({frozenset(a) for a in answers.values()}) == 1,
            " ".join(f"{k}={len(a)}" for k, a in answers.items()) + " rows",
        )
    # All four evaluators, all seven queries, on a store small enough for
    # the Def. 14 oracle and for sqlite's q2/q3 plans.
    oracle_db = build_db(oracle_stream, ORACLE_N, "engine")
    oracle_sqlite = build_db(oracle_stream, ORACLE_N, "sqlite")
    store = oracle_db.store
    for name, query in queries.items():
        expected = evaluate_naive(store.explicit_db, query, users=store.users())
        result.check(
            f"def14_oracle[{name}]",
            oracle_db.query(query) == expected
            and oracle_sqlite.query(query) == expected
            and evaluate_lazy(store, query) == expected,
            f"{len(expected)} rows expected",
        )


def run_pass(
    inputs: dict[str, Any], seconds: float, recorder, workdir, setup_reps: int = 3,
) -> PassResult:
    from repro.bench.queries import paper_queries

    result = PassResult()
    result.facts.update(client_threads=1, wal_sync="none (not durable)")
    queries = paper_queries()

    # Set-up: build the store and warm it (one round pins the first MVCC
    # version; on sqlite it also syncs the first mirror). Every repetition
    # is the same work; the first and the last are kept for the two phases.
    engine_db = sqlite_db = None
    setup_reps = max(2, setup_reps)  # one store per phase at the least
    setup_cpu, timed_cpu = Calibrator(), Calibrator()
    for rep in range(setup_reps):
        backend = "sqlite" if rep == setup_reps - 1 else "engine"
        setup_cpu.tick()
        start = stats.now()
        db = build_db(inputs["store"], N_ANNOTATIONS, backend)
        for name, query in queries.items():
            if backend == "engine" or name in CONTENT_QUERIES:
                db.query(query)
        result.setup_s.append(stats.now() - start)
        setup_cpu.tick()
        if backend == "sqlite":
            sqlite_db = db
        elif engine_db is None:
            engine_db = db
        del db
    assert engine_db is not None and sqlite_db is not None
    result.values["storage.relative_overhead"] = engine_db.relative_overhead()

    _checks(result, engine_db, sqlite_db, inputs["oracle"], queries)
    gc.collect()

    if recorder is not None:
        import spans

        spans.install_layer_spans(recorder)
    try:
        phase_start = stats.now()
        engine_rounds = _engine_phase(
            result, engine_db, queries, seconds / 2, timed_cpu
        )
        sqlite_rounds = _sqlite_phase(
            result, sqlite_db, queries, inputs["fresh"], seconds / 2, timed_cpu
        )
        result.wall_s = stats.now() - phase_start - sum(timed_cpu.samples)
    finally:
        if recorder is not None:
            recorder.uninstall()

    result.ops = 7 * engine_rounds + len(CONTENT_QUERIES) * sqlite_rounds
    result.attempted = result.ops + sqlite_rounds
    stats_now = sqlite_db.snapshot_stats()
    result.values["storage.snapshot_builds"] = stats_now["mvcc"]["snapshot_builds"]
    result.values["storage.pins"] = stats_now["mvcc"]["pins_total"]
    result.values["relational.mirror_syncs"] = sqlite_rounds
    result.rss_mb = self_rss_mb()
    result.setup_factor = setup_cpu.factor()
    result.timed_factor = timed_cpu.factor()
    return result


def _engine_phase(result: PassResult, db, queries, seconds: float, cpu) -> int:
    samples = {name: result.sample(f"query.{name}") for name in queries}
    rows = 0
    rounds = 0
    deadline = stats.now() + seconds
    while stats.now() < deadline:
        cpu.tick()
        for name, query in queries.items():
            start = stats.now()
            answer = db.query(query)
            samples[name].append(stats.now() - start)
            rows += len(answer)
        rounds += 1
    result.values["query.result_rows"] = rows / max(1, rounds)
    return rounds


def _sqlite_phase(result: PassResult, db, queries, fresh, seconds: float, cpu) -> int:
    rounds = 0
    round_s = result.sample("sqlite_round")
    insert_s = result.sample("insert")
    deadline = stats.now() + seconds
    while stats.now() < deadline and rounds < len(fresh):
        cpu.tick()
        start = stats.now()
        accepted = db.insert((), "Sightings", fresh[rounds])
        insert_s.append(stats.now() - start)
        if not accepted:
            result.failed += 1
        for name in CONTENT_QUERIES:
            db.query(queries[name])
        round_s.append(stats.now() - start)
        rounds += 1
    return rounds
