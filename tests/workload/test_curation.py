"""The conflict-heavy curation workload: invariants on every deployment."""

from __future__ import annotations

import pytest

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.server import BeliefClient, BeliefServer
from repro.workload.curation import (
    CURATORS,
    ClientDriver,
    CurationConfig,
    CurationStats,
    EmbeddedDriver,
    race_challenges,
    run_curation,
    seed_beliefs,
)

CONFIG = CurationConfig(n_beliefs=8, rounds=1, racers=3)


def _embedded_db() -> BeliefDBMS:
    db = BeliefDBMS(sightings_schema(), strict=False)
    for name in CURATORS:
        db.add_user(name)
    return db


def _check(stats: CurationStats, config: CurationConfig) -> None:
    assert stats.proposed == config.n_beliefs
    assert stats.conflicts > 0
    # Exact audit accounting: one event per successful op, nothing else.
    assert stats.audit_events == (
        stats.proposed + stats.transitions + stats.sweeps
    )
    assert sum(stats.by_status.values()) == config.n_beliefs
    assert set(stats.by_status) <= {
        "PROPOSED", "ACTIVE", "CHALLENGED", "DEPRECATED", "ARCHIVED"
    }


def test_embedded_run_holds_the_invariants():
    db = _embedded_db()
    stats = run_curation(EmbeddedDriver(db), CONFIG)
    _check(stats, CONFIG)
    # Counted conflicts match the BDMS's own conflict metric.
    families = {f["name"]: f for f in db.metrics.snapshot()}
    conflict_samples = families["beliefdb_lifecycle_conflicts_total"][
        "samples"
    ]
    assert sum(s["value"] for s in conflict_samples) == stats.conflicts


def test_threaded_server_run_holds_the_invariants():
    with BeliefServer(_embedded_db(), port=0) as server:
        clients: list[BeliefClient] = []

        def factory() -> ClientDriver:
            client = BeliefClient(*server.address)
            clients.append(client)
            return ClientDriver(client)

        try:
            main = factory()
            main.client.login(CURATORS[0])
            stats = run_curation(main, CONFIG, driver_factory=factory)
            _check(stats, CONFIG)
            # Every loser's LIFECYCLE_CONFLICT reached the server's metric.
            conflicts = sum(
                sample["value"]
                for family in main.client.metrics()["families"]
                if family["name"] == "beliefdb_lifecycle_conflicts_total"
                for sample in family["samples"]
            )
            assert conflicts == stats.conflicts
        finally:
            for client in clients:
                client.close()


def test_seed_builds_provenance_chains():
    db = _embedded_db()
    driver = EmbeddedDriver(db)
    ids = seed_beliefs(driver, CurationConfig(n_beliefs=6))
    assert len(ids) == len(set(ids)) == 6
    # Every third belief derives from its predecessor.
    chain = db.provenance(ids[2])["chain"]
    assert [n["belief"] for n in chain] == [ids[2], ids[1]]
    assert db.provenance(ids[1])["chain"][0]["belief"] == ids[1]


def test_race_produces_exactly_one_winner_per_belief():
    db = _embedded_db()
    driver = EmbeddedDriver(db)
    config = CurationConfig(n_beliefs=4, rounds=0, racers=4)
    ids = seed_beliefs(driver, config)
    for bid in ids:
        driver.transition(bid, "ACTIVE", actor=CURATORS[0],
                          expect="PROPOSED")
    targets = driver.queue(status="ACTIVE")
    stats = CurationStats()
    race_challenges(lambda: driver, targets, config.racers, stats)
    assert stats.conflicts == len(targets) * (config.racers - 1)
    assert stats.transitions == len(targets) * 2  # challenge + resolve

    # Audit shows each contended belief took exactly one challenge per race.
    for view in targets:
        events = db.audit_log(belief=view["belief"])
        tos = [e["to"] for e in events if e["action"] == "transition"]
        assert tos == ["ACTIVE", "CHALLENGED", "ACTIVE"]


def test_stats_as_dict_is_json_plain():
    stats = CurationStats(proposed=3, conflicts=1, by_status={"ACTIVE": 3})
    payload = stats.as_dict()
    assert payload["proposed"] == 3
    assert payload["by_status"] == {"ACTIVE": 3}
