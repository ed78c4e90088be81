"""Lifecycle & audit over the wire: threaded server, async server, router.

The wire contract: the same lifecycle surface on every deployment shape,
conflicts travel typed (``LIFECYCLE_CONFLICT`` re-raises as
LifecycleConflictError client-side), audit reads are pinned MVCC reads,
and the threaded server's op log replays to a bit-identical audit history.
"""

from __future__ import annotations

import pytest

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.errors import (
    LifecycleConflictError,
    LifecycleError,
    TransactionError,
)
from repro.server import AsyncBeliefServer, BeliefClient, BeliefServer
from tests.wal_oracle import durable_db, recovered_from_wal
from repro.shard import ShardCluster

S1 = ["s1", "Carol", "bald eagle", "6-14-08", "Lake Forest"]
S2 = ["s2", "Carol", "crow", "6-15-08", "Discovery Park"]


def _seed(client: BeliefClient) -> dict[str, str]:
    client.login("Carol", create=True)
    client.login("Bob", create=True)
    client.login("Carol")
    assert client.insert("Sightings", S1)
    assert client.insert("Sightings", S2)
    root = client.lifecycle_propose(
        "Sightings", S1, confidence=0.9, decay="exponential:3600",
        derived_from=["Bob"],
    )
    child = client.lifecycle_propose(
        "Sightings", S2, actor="Bob", confidence=0.6,
        derived_from=[root["belief"]],
    )
    return {"s1": root["belief"], "s2": child["belief"]}


def _exercise(client: BeliefClient, sweep_events: int = 1) -> None:
    """The full surface against whatever ``client`` is connected to.

    ``sweep_events``: audit events one decay sweep produces — 1 on a single
    server, one per shard behind a router (the sweep fans out and every
    shard stamps its own WAL).
    """
    ids = _seed(client)

    # Session user is the default actor; explicit actors override.
    events = client.audit_log(belief=ids["s1"])
    assert [e["action"] for e in events] == ["propose"]
    assert client.lifecycle_get(ids["s2"])["actor"] is not None

    view = client.lifecycle_transition(
        ids["s1"], "ACTIVE", expect="PROPOSED", path=["Carol"]
    )
    assert view["status"] == "ACTIVE"
    with pytest.raises(LifecycleConflictError):
        client.lifecycle_transition(
            ids["s1"], "ACTIVE", expect="PROPOSED", path=["Carol"]
        )

    queue = client.lifecycle_queue(status="PROPOSED")
    assert [v["belief"] for v in queue] == [ids["s2"]]
    assert len(client.lifecycle_queue(path=["Carol"])) == 2

    chain = client.provenance(ids["s2"])["chain"]
    assert [n["belief"] for n in chain] == [ids["s2"], ids["s1"]]

    swept = client.lifecycle_decay_sweep()
    assert set(swept) == {"swept", "changed"}
    assert swept["swept"] == 1  # s2 has decay "none" and is skipped

    events = client.audit_log()
    actions = [e["action"] for e in events]
    assert actions == (
        ["propose", "propose", "transition"] + ["decay_sweep"] * sweep_events
    )
    if sweep_events == 1:
        assert [e["seq"] for e in events] == [1, 2, 3, 4]

    with pytest.raises(LifecycleError, match="no lifecycle record"):
        client.provenance("bdoesnotexist")


#: A path through a user nobody registered names no world (Def. 14): the
#: select is empty, with or without a WITH clause — never UnknownUserError.
UNKNOWN_USER_SELECTS = (
    ("select s.sid from BELIEF 'Nobody' Sightings s", []),
    ("select s.sid from BELIEF 'Nobody' Sightings s with status = 'ACTIVE'", []),
    (
        "select s.sid from BELIEF ? Sightings s "
        "with confidence >= ? and derived from ?",
        ["Nobody", 0.5, "Bob"],
    ),
)


def _unknown_user_rows(client: BeliefClient) -> list:
    _seed(client)
    return [
        client.drain(client.execute_prepared(sql, params))
        for sql, params in UNKNOWN_USER_SELECTS
    ]


def test_unknown_user_in_a_with_select_is_empty_embedded():
    db = BeliefDBMS(sightings_schema(), strict=False)
    for name in ("Carol", "Bob"):
        db.add_user(name)
    db.insert(["Carol"], "Sightings", S1)
    db.lifecycle_propose(["Carol"], "Sightings", S1, derived_from=["Bob"])
    for sql, params in UNKNOWN_USER_SELECTS:
        assert db.execute_sql(sql, params).rows == []


class TestThreadedServer:
    def test_full_surface(self):
        db = BeliefDBMS(sightings_schema(), strict=False)
        with BeliefServer(db, port=0) as server:
            with BeliefClient(*server.address) as client:
                _exercise(client)

    def test_lifecycle_refused_inside_a_transaction(self):
        db = BeliefDBMS(sightings_schema(), strict=False)
        with BeliefServer(db, port=0) as server:
            with BeliefClient(*server.address) as client:
                _seed(client)
                client.call("begin")
                try:
                    with pytest.raises(
                        TransactionError, match="not transactional"
                    ):
                        client.lifecycle_decay_sweep()
                finally:
                    client.call("rollback")

    def test_wal_recovers_a_bit_identical_audit(self, tmp_path):
        db = durable_db(sightings_schema(), tmp_path / "data")
        with BeliefServer(db, port=0) as server:
            with BeliefClient(*server.address) as client:
                ids = _seed(client)
                client.lifecycle_transition(
                    ids["s1"], "ACTIVE", expect="PROPOSED"
                )
                client.lifecycle_decay_sweep()
                live_audit = client.audit_log()
        # The WAL record carries the server-stamped timestamp, so recovery
        # rebuilds the exact audit history (ids and event order are
        # deterministic functions of the record contents).
        with recovered_from_wal(db) as replica:
            assert replica.audit_log() == live_audit
            assert replica.lifecycle_get(ids["s1"])["status"] == "ACTIVE"


    def test_unknown_user_in_a_with_select_is_empty(self):
        db = BeliefDBMS(sightings_schema(), strict=False)
        with BeliefServer(db, port=0) as server:
            with BeliefClient(*server.address) as client:
                assert _unknown_user_rows(client) == [[], [], []]


class TestAsyncServer:
    def test_full_surface(self):
        db = BeliefDBMS(sightings_schema(), strict=False)
        with AsyncBeliefServer(db) as server:
            with BeliefClient(*server.address) as client:
                _exercise(client)

    def test_unknown_user_in_a_with_select_is_empty(self):
        db = BeliefDBMS(sightings_schema(), strict=False)
        with AsyncBeliefServer(db) as server:
            with BeliefClient(*server.address) as client:
                assert _unknown_user_rows(client) == [[], [], []]


class TestShardRouter:
    @pytest.fixture(scope="class")
    def cluster(self):
        with ShardCluster(n_shards=2) as c:
            yield c

    def test_full_surface_routed(self, cluster):
        with BeliefClient(*cluster.address) as client:
            _exercise(client, sweep_events=cluster.n_shards)

    def test_unknown_user_in_a_with_select_is_empty(self, cluster):
        with BeliefClient(*cluster.address) as client:
            client.login("Carol", create=True)
            assert [
                client.drain(client.execute_prepared(sql, params))
                for sql, params in UNKNOWN_USER_SELECTS
            ] == [[], [], []]

    def test_decay_sweep_fans_out_and_sums(self, cluster):
        with BeliefClient(*cluster.address) as client:
            # Seed one tracked belief per distinct user world; they land on
            # whichever shards the ring picks — the sweep must reach all.
            tracked = 0
            for name in ("FanA", "FanB", "FanC", "FanD"):
                client.login(name, create=True)
                row = [f"fs-{name}", name, "heron", "7-1-08", "lake"]
                assert client.insert("Sightings", row)
                client.lifecycle_propose(
                    "Sightings", row, decay="exponential:60",
                )
                tracked += 1
            swept = client.lifecycle_decay_sweep()
            assert swept["swept"] >= tracked

    def test_audit_log_merges_ordered_across_shards(self, cluster):
        with BeliefClient(*cluster.address) as client:
            events = client.audit_log()
            assert events, "expected audit history from prior tests"
            stamps = [(e["ts"], e["seq"]) for e in events]
            assert stamps == sorted(stamps)

    def test_record_lookup_searches_all_shards(self, cluster):
        with BeliefClient(*cluster.address) as client:
            client.login("FinderX", create=True)
            row = ["fx1", "FinderX", "loon", "7-2-08", "bay"]
            assert client.insert("Sightings", row)
            bid = client.lifecycle_propose("Sightings", row)["belief"]
        # A fresh connection with no session path still finds the record.
        with BeliefClient(*cluster.address) as other:
            assert other.lifecycle_get(bid)["belief"] == bid
            assert other.provenance(bid)["belief"] == bid
            assert other.lifecycle_get("bdoesnotexist") is None
