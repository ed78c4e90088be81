"""One session model on every endpoint.

The shard router serves the same :class:`ClientSession` the servers do: it
forwards a session's default path as uids, through the one
``ClientSession.rewrite``, so a user spelled by name or by uid routes to
the one shard that holds the user's worlds. A ``path`` parameter is checked
in one place (``ClientSession.effective_path``), so a malformed one gets
the same typed error from the threaded server, the async server and the
router.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.errors import BeliefDBError
from repro.server import AsyncBeliefServer, BeliefClient, BeliefServer
from repro.shard import HashRing, ShardCluster

ROW = ["u", "heron", "d", "l"]
#: The first user a fresh fleet creates gets uid 1.
FIRST_UID = 1


def _name_away_from_its_uid() -> str:
    """A user name whose home shard is not where its bare uid would hash,
    so a router that hashed the uid itself would pick the wrong shard."""
    ring = HashRing(2)
    return next(
        name for name in (f"user-{i}" for i in range(100))
        if ring.shard_for(name) != ring.shard_for(FIRST_UID)
    )


def test_a_uid_and_a_name_route_a_statement_to_one_shard():
    name = _name_away_from_its_uid()
    with ShardCluster(n_shards=2) as cluster, \
            BeliefClient(*cluster.address) as client:
        uid = client.add_user(name)
        assert uid == FIRST_UID
        home = cluster.router.ring.shard_for(name)
        # Each spelling of the user, in each place a statement names it.
        client.execute_prepared(
            f"insert into BELIEF '{name}' Sightings values (?,?,?,?,?)",
            ["by-name", *ROW],
        )
        client.execute_prepared(
            f"insert into BELIEF {uid} Sightings values (?,?,?,?,?)",
            ["by-uid", *ROW],
        )
        client.execute_batch(
            "insert into BELIEF ? Sightings values (?,?,?,?,?)",
            [[name, "batch-name", *ROW], [uid, "batch-uid", *ROW]],
        )
        client.login(name)
        client.execute_prepared(
            "insert into Sightings values (?,?,?,?,?)", ["by-login", *ROW]
        )
        client.set_path([uid])
        client.execute_prepared(
            "insert into Sightings values (?,?,?,?,?)", ["by-path", *ROW]
        )
        sids = {"by-name", "by-uid", "batch-name", "batch-uid",
                "by-login", "by-path"}
        for shard, worker in enumerate(cluster.coordinator.workers):
            world = worker._server.db.world([uid]).positives
            held = {t.values[0] for t in world}
            assert held == (sids if shard == home else set()), shard
        for path in ([name], [uid], None):
            assert client.believes(
                "Sightings", ["by-uid", *ROW], path=path
            ) is True
            assert len(client.world(path)["positives"]) == len(sids)
        rows = client.drain(client.execute_prepared(
            f"select S.sid from BELIEF {uid} Sightings as S"
        ))
        assert {row[0] for row in rows} == sids


def test_a_restarted_router_routes_a_uid_it_has_not_seen(tmp_path):
    """A fresh router over existing shards knows no users yet; a statement
    naming a uid still lands on the user's home shard."""
    name = _name_away_from_its_uid()
    with ShardCluster(n_shards=2, data_dir=str(tmp_path)) as cluster, \
            BeliefClient(*cluster.address) as client:
        uid = client.add_user(name)
    with ShardCluster(n_shards=2, data_dir=str(tmp_path)) as cluster, \
            BeliefClient(*cluster.address) as client:
        client.execute_prepared(
            f"insert into BELIEF {uid} Sightings values (?,?,?,?,?)",
            ["after-restart", *ROW],
        )
        home = cluster.router.ring.shard_for(name)
        for shard, worker in enumerate(cluster.coordinator.workers):
            held = len(worker._server.db.world([uid]).positives)
            assert held == (1 if shard == home else 0), shard
        assert client.believes(
            "Sightings", ["after-restart", *ROW], path=[name]
        ) is True


@contextlib.contextmanager
def _endpoint(kind: str):
    if kind == "router":
        with ShardCluster(n_shards=2) as cluster:
            yield cluster.address
    else:
        core = BeliefServer if kind == "threaded" else AsyncBeliefServer
        with core(BeliefDBMS(sightings_schema())) as server:
            yield server.address


#: One request per op that takes a ``path`` parameter.
PATH_CALLS = {
    "believes": lambda path: ("believes", {
        "relation": "Sightings", "values": ["s1", *ROW], "path": path,
    }),
    "world": lambda path: ("world", {"path": path}),
    "lifecycle propose": lambda path: ("lifecycle", {
        "action": "propose", "relation": "Sightings",
        "values": ["s1", *ROW], "path": path,
    }),
    "audit queue": lambda path: ("audit", {"kind": "queue", "path": path}),
}


@pytest.mark.parametrize("kind", ["threaded", "async", "router"])
def test_a_malformed_path_is_one_typed_error_everywhere(kind):
    with _endpoint(kind) as address, BeliefClient(*address) as client:
        client.login("Alice", create=True)
        client.execute_prepared(
            "insert into Sightings values (?,?,?,?,?)", ["s1", *ROW]
        )
        for name, call in sorted(PATH_CALLS.items()):
            for bad in (5, "Alice", {"user": "Alice"}, [["Alice"]]):
                op, params = call(bad)
                with pytest.raises(BeliefDBError) as raised:
                    client.call(op, **params)
                assert type(raised.value) is BeliefDBError, (name, bad)
                assert "path must be a list of users" in str(raised.value)
            # ... and a well-formed one still answers.
            op, params = call(["Alice"])
            client.call(op, **params)
