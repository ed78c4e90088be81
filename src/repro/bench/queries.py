"""Query-performance experiments: Table 2 and the linear-scaling claim
(Sect. 6.2).

The paper times seven queries over one synthetic belief database (the
running-example schema without Comments):

* ``q1,d`` for d = 0..4 — *content queries*: "what does belief world w
  contain?", with belief paths of increasing depth;
* ``q2`` — a *conflict query*: "which sightings does Bob believe Alice
  believes, which he does not believe himself?"
  (``q2(x,y) :- 2·1 S+(x,z,y,u,v), 2 S−(x,z,y,u,v)``);
* ``q3`` — a *query for users*: "who disagrees with any of user 1's beliefs
  of sightings at <location>?"
  (``q3(x) :- x S−(y,z,u,v,'a'), 1 S+(y,z,u,v,'a')``).

On the engine each of the seven runs as one compiled join (Algorithm 1's
``T_i`` unfolded, :func:`repro.relational.datalog.unfold`) over keys and
indexes that are there: a round materializes no temporary and builds no
index (``tests/storage/test_index_builds.py``). ``q3`` — the paper's
slowest Table 2 query too — starts from user 1's world and probes every
user's world per key found there (``E(wid1)``, the one index the schema
does not declare and the store adopts the first time ``q3`` is asked, then
``V(wid, key)``), instead of listing every belief of every user first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.bench.harness import Timing, time_call
from repro.core.statements import NEGATIVE, POSITIVE
from repro.query.bcq import BCQuery, ModalSubgoal, UserAtom, Variable
from repro.query.lazy import evaluate_lazy
from repro.query.sql_gen import evaluate_sql
from repro.query.translate import evaluate_translated
from repro.relational.sqlite_backend import SqliteMirror
from repro.storage.store import BeliefStore
from repro.workload.generator import LOCATIONS, WorkloadConfig, build_store

#: Location constant used by q3 (the paper writes it as 'a').
Q3_LOCATION = LOCATIONS[1]  # "Lake Placid"


def _content_vars() -> tuple[Variable, ...]:
    return tuple(Variable(n) for n in ("k", "z", "sp", "u", "v"))


def content_query(path: tuple[int, ...]) -> BCQuery:
    """``q1,d``: keys and species believed in the world at ``path``."""
    k, z, sp, u, v = _content_vars()
    return BCQuery(
        head=(k, sp),
        subgoals=(
            ModalSubgoal(path, "Sightings", POSITIVE, (k, z, sp, u, v)),
        ),
        name=f"q1_{len(path)}",
    )


def conflict_query(believer: int = 2, about: int = 1) -> BCQuery:
    """``q2``: what ``believer`` thinks ``about`` believes but rejects himself."""
    k, z, sp, u, v = _content_vars()
    return BCQuery(
        head=(k, sp),
        subgoals=(
            ModalSubgoal((believer, about), "Sightings", POSITIVE, (k, z, sp, u, v)),
            ModalSubgoal((believer,), "Sightings", NEGATIVE, (k, z, sp, u, v)),
        ),
        name="q2",
    )


def user_query(about: int = 1, location: str = Q3_LOCATION) -> BCQuery:
    """``q3``: users disagreeing with ``about``'s sightings at ``location``."""
    k, z, sp, u, _ = _content_vars()
    x = Variable("x")
    return BCQuery(
        head=(x,),
        subgoals=(
            ModalSubgoal((x,), "Sightings", NEGATIVE, (k, z, sp, u, location)),
            ModalSubgoal((about,), "Sightings", POSITIVE, (k, z, sp, u, location)),
        ),
        name="q3",
    )


def paper_queries(max_depth: int = 4) -> dict[str, BCQuery]:
    """The seven Table 2 queries, with q1 paths alternating users 1 and 2."""
    queries: dict[str, BCQuery] = {}
    for d in range(max_depth + 1):
        path = tuple((1, 2)[i % 2] for i in range(d))
        queries[f"q1,{d}"] = content_query(path)
    queries["q2"] = conflict_query()
    queries["q3"] = user_query()
    return queries


def build_experiment_store(
    n_annotations: int,
    n_users: int = 10,
    seed: int = 1,
    eager: bool = True,
    participation: str = "zipf",
    depth_distribution: tuple[float, ...] = (0.5, 0.35, 0.15),
) -> BeliefStore:
    """The Table 2 database: one synthetic store with conflicts at all depths."""
    config = WorkloadConfig(
        n_annotations=n_annotations,
        n_users=n_users,
        depth_distribution=depth_distribution,
        participation=participation,
        seed=seed,
    )
    store, _ = build_store(config, eager=eager)
    return store


@dataclass
class QueryMeasurement:
    name: str
    backend: str
    timing: Timing
    result_size: int


def run_query_suite(
    store: BeliefStore,
    queries: dict[str, BCQuery],
    backend: str = "engine",
    repeats: int = 5,
    mirror: SqliteMirror | None = None,
) -> list[QueryMeasurement]:
    """Time each query on one backend; returns sizes for sanity checks.

    ``backend``: "engine" (translated Datalog), "sqlite" (that program as
    SQL on a synced mirror), or "lazy" (query-time defaults).
    """
    runner: Callable[[BCQuery], set]
    owned = None  # a mirror made here, closed here
    if backend == "engine":
        runner = lambda q: evaluate_translated(store, q)  # noqa: E731
    elif backend == "sqlite":
        if mirror is None:
            mirror = owned = SqliteMirror()
            mirror.sync(store.engine)
        runner = lambda q: evaluate_sql(store, q, mirror)  # noqa: E731
    elif backend == "lazy":
        runner = lambda q: evaluate_lazy(store, q)  # noqa: E731
    else:
        raise ValueError(f"unknown backend {backend!r}")

    measurements: list[QueryMeasurement] = []
    try:
        for name, query in queries.items():
            timing = time_call(lambda q=query: runner(q), repeats=repeats)
            size = len(timing.last_result) if timing.last_result is not None else 0
            measurements.append(QueryMeasurement(name, backend, timing, size))
    finally:
        if owned is not None:
            owned.close()
    return measurements
