"""Conflict-heavy curation workload over the belief lifecycle subsystem.

Models the NatureMapping curation desk on top of the lifecycle state
machine: volunteers report sightings, curators *propose* lifecycle tracking
for them, review queues drain PROPOSED beliefs to ACTIVE, reviewers
challenge dubious ones, racing curators fight over the same CHALLENGED
belief with compare-and-swap transitions (exactly one wins; the losers get
the typed ``LIFECYCLE_CONFLICT``), and periodic decay sweeps age every
confidence. Deterministic for a given seed, except for *who* wins a race —
the aggregate counts (one winner per contended belief, the rest conflicts)
are deterministic either way.

The same workload drives every deployment shape through a small driver
facade: :class:`EmbeddedDriver` wraps a :class:`~repro.bdms.bdms.BeliefDBMS`
directly; :class:`ClientDriver` wraps anything with the
:class:`~repro.server.client.BeliefClient` lifecycle surface (threaded
server, asyncio server via a sync bridge, shard router).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.bdms.dml import tuple_sql
from repro.errors import LifecycleConflictError
from repro.workload.generator import LOCATIONS, SPECIES

CURATORS = ("Alice", "Bob", "Carol", "Dave")


@dataclass
class CurationConfig:
    n_beliefs: int = 24
    seed: int = 11
    #: Fraction of ACTIVE beliefs challenged per review round.
    challenge_rate: float = 0.5
    #: Review rounds (accept / challenge / resolve / sweep) to run.
    rounds: int = 2
    #: Racing curators per contended belief in the conflict phase.
    racers: int = 3
    #: Decay spec given to proposed beliefs (mix with "none" for variety).
    decay: str = "exponential:1800"


@dataclass
class CurationStats:
    proposed: int = 0
    transitions: int = 0
    conflicts: int = 0
    sweeps: int = 0
    swept: int = 0
    decayed: int = 0
    audit_events: int = 0
    by_status: dict[str, int] = field(default_factory=dict)
    elapsed_s: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        return dict(vars(self))


# ------------------------------------------------------------------ drivers


class EmbeddedDriver:
    """The curation surface of one in-process BDMS."""

    def __init__(self, db: Any) -> None:
        self.db = db

    def propose(
        self, path: Sequence[Any], relation: str, values: Sequence[Any],
        **kw: Any,
    ) -> dict[str, Any]:
        return self.db.lifecycle_propose(path, relation, values, **kw)

    def transition(self, belief: str, to: str, **kw: Any) -> dict[str, Any]:
        kw.pop("path", None)  # routing-only; meaningless embedded
        return self.db.lifecycle_transition(belief, to, **kw)

    def sweep(self) -> dict[str, Any]:
        return self.db.lifecycle_decay_sweep()

    def queue(self, **kw: Any) -> list[dict[str, Any]]:
        return self.db.lifecycle_list(**kw)

    def audit(self, **kw: Any) -> list[dict[str, Any]]:
        return self.db.audit_log(**kw)

    def insert(
        self, path: Sequence[Any], relation: str, values: Sequence[Any]
    ) -> None:
        self.db.insert(path, relation, values)


class ClientDriver:
    """The same surface over a wire client (server or shard router)."""

    def __init__(self, client: Any) -> None:
        self.client = client

    def propose(
        self, path: Sequence[Any], relation: str, values: Sequence[Any],
        **kw: Any,
    ) -> dict[str, Any]:
        return self.client.lifecycle_propose(
            relation, values, path=path, **kw
        )

    def transition(self, belief: str, to: str, **kw: Any) -> dict[str, Any]:
        return self.client.lifecycle_transition(belief, to, **kw)

    def sweep(self) -> dict[str, Any]:
        return self.client.lifecycle_decay_sweep()

    def queue(self, **kw: Any) -> list[dict[str, Any]]:
        return self.client.lifecycle_queue(**kw)

    def audit(self, **kw: Any) -> list[dict[str, Any]]:
        return self.client.audit_log(**kw)

    def insert(
        self, path: Sequence[Any], relation: str, values: Sequence[Any]
    ) -> None:
        self.client.execute_prepared(
            tuple_sql("insert", len(path), relation, len(values)),
            [*path, *values],
        )


# ------------------------------------------------------------------ phases


def seed_beliefs(
    driver: Any, config: CurationConfig, curators: Sequence[str] = CURATORS
) -> list[str]:
    """Insert sightings and propose lifecycle tracking for each.

    Every third belief derives from the previous one (a correction chain),
    giving the workload real provenance links to audit later.
    """
    rng = random.Random(config.seed)
    belief_ids: list[str] = []
    for i in range(config.n_beliefs):
        curator = curators[i % len(curators)]
        sid = f"cs{i + 1}"
        values = (
            sid, curator, rng.choice(SPECIES),
            f"{rng.randrange(1, 13)}-{rng.randrange(1, 29)}-08",
            rng.choice(LOCATIONS),
        )
        driver.insert((curator,), "Sightings", values)
        derived: list[str] = [curators[(i + 1) % len(curators)]]
        if i % 3 == 2 and belief_ids:
            derived.append(belief_ids[-1])
        view = driver.propose(
            (curator,), "Sightings", values,
            actor=curator,
            confidence=round(0.5 + rng.random() / 2, 3),
            decay=config.decay if i % 2 else "none",
            derived_from=derived,
        )
        belief_ids.append(view["belief"])
    return belief_ids


def run_review_rounds(
    driver: Any,
    belief_ids: Sequence[str],
    config: CurationConfig,
    stats: CurationStats,
    curators: Sequence[str] = CURATORS,
) -> None:
    """Drain the review queue: accept, challenge a subset, resolve, sweep."""
    rng = random.Random(config.seed + 1)
    for _ in range(config.rounds):
        for view in driver.queue(status="PROPOSED"):
            driver.transition(
                view["belief"], "ACTIVE",
                actor=rng.choice(curators), expect="PROPOSED",
                path=view["path"],
            )
            stats.transitions += 1
        for view in driver.queue(status="ACTIVE"):
            if rng.random() >= config.challenge_rate:
                continue
            driver.transition(
                view["belief"], "CHALLENGED",
                actor=rng.choice(curators), expect="ACTIVE",
                reason="spot check", path=view["path"],
            )
            stats.transitions += 1
        for view in driver.queue(status="CHALLENGED"):
            resolved = "ACTIVE" if rng.random() < 0.7 else "DEPRECATED"
            driver.transition(
                view["belief"], resolved,
                actor=rng.choice(curators), expect="CHALLENGED",
                path=view["path"],
            )
            stats.transitions += 1
        swept = driver.sweep()
        stats.sweeps += 1
        stats.swept += swept["swept"]
        stats.decayed += swept["changed"]
    for view in driver.queue(status="DEPRECATED"):
        driver.transition(
            view["belief"], "ARCHIVED",
            actor=rng.choice(curators), expect="DEPRECATED",
            path=view["path"],
        )
        stats.transitions += 1


def race_challenges(
    driver_factory: Callable[[], Any],
    targets: Sequence[dict[str, Any]],
    racers: int,
    stats: CurationStats,
    curators: Sequence[str] = CURATORS,
) -> None:
    """The conflict phase: ``racers`` curators CAS the *same* beliefs.

    Every racer attempts ``ACTIVE -> CHALLENGED expect=ACTIVE`` on every
    target concurrently (a barrier lines them up per belief). Exactly one
    wins each belief; the rest observe the typed conflict. The winner's
    challenge is then resolved back to ACTIVE so races can stack.
    ``driver_factory`` is called once per racer thread — wire drivers need
    a private connection each.
    """
    for view in targets:
        barrier = threading.Barrier(racers)
        outcomes: list[bool] = []
        lock = threading.Lock()

        def attempt(who: str, belief: str, path: list) -> None:
            driver = driver_factory()
            barrier.wait()
            try:
                driver.transition(
                    belief, "CHALLENGED", actor=who, expect="ACTIVE",
                    reason=f"{who} disputes this", path=path,
                )
                won = True
            except LifecycleConflictError:
                won = False
            with lock:
                outcomes.append(won)

        threads = [
            threading.Thread(
                target=attempt,
                args=(curators[i % len(curators)], view["belief"],
                      view["path"]),
            )
            for i in range(racers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wins = sum(outcomes)
        if wins != 1:
            raise AssertionError(
                f"race on {view['belief']}: {wins} winners of "
                f"{len(outcomes)} racers (exactly 1 expected)"
            )
        stats.transitions += 1
        stats.conflicts += len(outcomes) - 1
        resolver = driver_factory()
        resolver.transition(
            view["belief"], "ACTIVE", actor=curators[0],
            expect="CHALLENGED", reason="race resolved", path=view["path"],
        )
        stats.transitions += 1


def run_curation(
    driver: Any,
    config: CurationConfig | None = None,
    driver_factory: Callable[[], Any] | None = None,
) -> CurationStats:
    """The full workload: seed, review rounds, CAS races, final sweep.

    ``driver_factory`` supplies per-thread drivers for the race phase;
    defaults to reusing ``driver`` (fine embedded, where the BDMS write
    mutex serializes, wrong for one shared wire connection).
    """
    config = config or CurationConfig()
    factory = driver_factory or (lambda: driver)
    stats = CurationStats()
    start = time.perf_counter()
    belief_ids = seed_beliefs(driver, config)
    stats.proposed = len(belief_ids)
    run_review_rounds(driver, belief_ids, config, stats)
    contended = driver.queue(status="ACTIVE")[: max(1, config.n_beliefs // 4)]
    if contended:
        race_challenges(factory, contended, config.racers, stats)
    final = driver.sweep()
    stats.sweeps += 1
    stats.swept += final["swept"]
    stats.decayed += final["changed"]
    for view in driver.queue():
        stats.by_status[view["status"]] = (
            stats.by_status.get(view["status"], 0) + 1
        )
    stats.audit_events = len(driver.audit())
    stats.elapsed_s = time.perf_counter() - start
    return stats
