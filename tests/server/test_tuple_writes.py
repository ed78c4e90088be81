"""One tuple written as BeliefSQL, alike on every deployment shape.

``insert into not R values (t)`` on a session's default path states that
the session's user believes ``t`` is false; ``delete from R values (t)``
removes the explicit ``t``, after which the world believes neither ``t``
nor ``not t`` — "believes not-t" and "does not believe t" stay distinct.
Both forms leave exactly the explicit statements ``BeliefDBMS.insert(path,
R, t, '-')`` / ``BeliefDBMS.delete(path, R, t)`` leave, fail with the same
typed errors embedded, threaded, async and sharded, and reach the WAL as
replayable template+params ``execute`` records. A session whose default
path is empty writes plain content, which every shape reads back from the
content world.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.api import connect
from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.errors import BeliefDBError
from repro.server import AsyncBeliefServer, BeliefServer
from repro.shard import CONTENT_KEY, HashRing, ShardCluster
from tests.wal_oracle import (
    durable_db,
    explicit_state,
    recovered_from_wal,
    wal_records,
)

SHAPES = ("embedded", "threaded", "async", "router")
BELIEVER = "Believer"
INSERT = "insert into Sightings values (?,?,?,?,?)"
NEGATE = "insert into not Sightings values (?,?,?,?,?)"
DELETE = "delete from Sightings values (?,?,?,?,?)"
T = ["t-1", "u", "heron", "d", "l"]
U = ["t-2", "u", "egret", "d", "l"]
#: (sql, params) -> the typed error's class name, on every shape.
ERRORS = [
    ("delete from Sightings values (?)", ["t-1"], "BeliefSQLCompileError"),
    ("delete from not not Sightings values (?,?,?,?,?)", T,
     "BeliefSQLSyntaxError"),
    ("insert into BELIEF 'Nobody' not Sightings values (?,?,?,?,?)", T,
     "UnknownUserError"),
    ("delete from BELIEF ? BELIEF ? Sightings values (?,?,?,?,?)",
     [BELIEVER, BELIEVER, *T], "InvalidBeliefPath"),
]


@contextlib.contextmanager
def _deployment(shape, tmp_path, user=BELIEVER):
    """``(conn, db, believes)``: an api connection logged in as ``user``,
    the durable database holding ``user``'s world (the home shard's behind
    the router), and ``believes(values, sign)`` at the session's world —
    a wire op for every shape but the embedded one."""
    if shape == "embedded":
        db = durable_db(sightings_schema(), tmp_path / "data")
        with connect(db, user=user) as conn:
            yield conn, db, lambda values, sign: db.believes(
                [user], "Sightings", values, sign
            )
        return
    with contextlib.ExitStack() as stack:
        if shape == "router":
            cluster = stack.enter_context(
                ShardCluster(n_shards=2, data_dir=str(tmp_path / "shards"))
            )
            address = cluster.address
            home = cluster.router.ring.shard_for(user)
            db = cluster.coordinator.workers[home]._server.db
        else:
            core = BeliefServer if shape == "threaded" else AsyncBeliefServer
            db = durable_db(sightings_schema(), tmp_path / "data")
            address = stack.enter_context(core(db)).address
        conn = stack.enter_context(connect(address, user=user))
        yield conn, db, lambda values, sign: conn.client.believes(
            "Sightings", values, sign=sign
        )


@pytest.mark.parametrize("shape", SHAPES)
def test_negative_insert_and_tuple_delete_alike_on_every_shape(
    shape, tmp_path
):
    with _deployment(shape, tmp_path) as (conn, db, believes):
        assert conn.execute(INSERT, T).rowcount == 1
        assert conn.execute(NEGATE, U).rowcount == 1
        assert believes(U, "-") is True
        assert believes(U, "+") is False
        assert conn.execute(DELETE, T).rowcount == 1
        assert believes(T, "+") is False
        assert believes(T, "-") is False
        # A missing tuple deletes nothing; it is not an error.
        assert conn.execute(DELETE, T).rowcount == 0
        for sql, params, error in ERRORS:
            with pytest.raises(BeliefDBError) as raised:
                conn.execute(sql, params)
            assert type(raised.value).__name__ == error, sql

        reference = BeliefDBMS(sightings_schema())
        reference.add_user(BELIEVER, uid=db.uid(BELIEVER))
        reference.insert([BELIEVER], "Sightings", T)
        reference.insert([BELIEVER], "Sightings", U, "-")
        reference.delete([BELIEVER], "Sightings", T)
        assert explicit_state(db) == explicit_state(reference)

        writes = [r for r in wal_records(db) if r["op"] != "add_user"]
        assert [(r["op"], r["params"]) for r in writes] == [
            ("execute", T), ("execute", U), ("execute", T),
        ]
        assert "not Sightings values" in writes[1]["sql"]
        assert writes[2]["sql"].startswith("delete from BELIEF ")
    if shape != "router":  # a worker's WAL stays with its running fleet
        with recovered_from_wal(db) as recovered:
            assert recovered.believes([BELIEVER], "Sightings", U, "-")


@pytest.mark.parametrize("shape", SHAPES)
def test_set_path_refuses_an_adjacent_repeat(shape, tmp_path):
    """``[u, u]`` is no belief path: ``set_path`` says so, and the session
    keeps the path it had, so its statements still run."""
    with _deployment(shape, tmp_path) as (conn, db, believes):
        before = conn.default_path
        with pytest.raises(BeliefDBError) as raised:
            conn.set_path([BELIEVER, BELIEVER])
        assert type(raised.value).__name__ == "InvalidBeliefPath"
        assert conn.default_path == before
        assert conn.execute(NEGATE, U).rowcount == 1
        assert believes(U, "-") is True


@pytest.mark.parametrize("shape", SHAPES)
def test_an_empty_default_path_writes_plain_content(shape, tmp_path):
    """After ``set_path([])`` a plain insert is content, not the user's
    belief: the content world holds it and a prefix-less select reads it.
    The user's home shard is not the content shard, so a router that
    routed the insert by the logged-in user would lose it there."""
    ring = HashRing(2)
    user = next(
        name for name in (f"user-{i}" for i in range(100))
        if ring.shard_for(name) != ring.shard_for(CONTENT_KEY)
    )
    with _deployment(shape, tmp_path, user) as (conn, db, believes):
        conn.set_path([])
        assert conn.default_path == ()
        assert conn.execute(INSERT, T).rowcount == 1
        if shape == "embedded":
            positives = [str(t) for t in db.world([]).positives]
        else:
            positives = conn.client.world(path=[])["positives"]
        assert len(positives) == 1
        rows = conn.execute("select S.sid from Sightings S").rows
        assert [tuple(row) for row in rows] == [(T[0],)]
