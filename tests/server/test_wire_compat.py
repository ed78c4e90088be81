"""Wire compatibility matrix: {json, binary, auto} × every server core.

The negotiation contract (`docs/wire-protocol.md`) in executable form:

* a client pinned to either codec gets identical *semantics* from the
  threaded server, the pipelined async server, and the shard router;
* mixed-codec sessions coexist on one server concurrently;
* ``wire="auto"`` degrades to JSON against a JSON-only server, while
  ``wire="binary"`` fails closed with :class:`ProtocolError`;
* reconnection re-negotiates from scratch, so a binary session that
  lands on a JSON-only endpoint keeps working on the floor.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.server import (
    AsyncBeliefClient,
    AsyncBeliefServer,
    BeliefClient,
    BeliefServer,
)
from repro.errors import BeliefDBError
from repro.server.binproto import CODEC_BINARY, CODEC_JSON
from repro.server.protocol import ProtocolError
from repro.shard import ShardCluster

ROW = ["s1", "Carol", "bald eagle", "6-14-08", "Lake Forest"]
WIRES = ("json", "binary", "auto")
INSERT = "insert into Sightings values (?,?,?,?,?)"
#: Retired ops with a request each: the ``execute`` text op, the
#: ``insert`` / ``delete`` tuple ops (BeliefSQL writes one tuple now) and
#: the ``query`` BCQ-text op (BeliefSQL selects read).
RETIRED = (
    ("execute", {"sql": "select S.sid from Sightings as S"}),
    ("insert", {"relation": "Sightings", "values": ROW, "path": None,
                "sign": "+"}),
    ("delete", {"relation": "Sightings", "values": ROW, "path": None,
                "sign": "+"}),
    ("query", {"bcq": "q(s) :- [] Sightings+(s, u, sp, d, l)"}),
)


def _dbms() -> BeliefDBMS:
    return BeliefDBMS(sightings_schema(), strict=False)


def _exercise(client: BeliefClient, sid: str) -> None:
    """One slice of real semantics, identical across every cell."""
    assert client.ping()
    info = client.login("Carol", create=True)
    assert info["user_name"] == "Carol"
    row = [sid] + ROW[1:]
    assert client.execute_prepared(INSERT, row)["rowcount"] == 1
    rows = client.drain(client.execute_prepared(
        "select S.species from BELIEF 'Carol' Sightings as S "
        f"where S.sid = '{sid}'"
    ))
    assert rows == [["bald eagle"]]
    # The retired ops: a typed error on every endpoint and codec (binary
    # still has their reserved codes), and the connection survives them.
    for op, params in RETIRED:
        with pytest.raises(BeliefDBError, match=f"unknown operation '{op}'"):
            client.call(op, **params)
    page = client.execute_prepared(
        "select S.sid from BELIEF 'Carol' Sightings as S where S.sid = ?",
        [sid],
    )
    assert page["rows"] == [[sid]]


# ------------------------------------------------------------------ the matrix


@pytest.mark.parametrize("wire", WIRES)
def test_threaded_server(wire):
    with BeliefServer(_dbms()) as server:
        with BeliefClient(*server.address, wire=wire) as client:
            _exercise(client, f"st-{wire}")
            want = CODEC_JSON if wire == "json" else CODEC_BINARY
            assert client._codec.name == want


@pytest.mark.parametrize("wire", WIRES)
def test_async_server_blocking_client(wire):
    with AsyncBeliefServer(_dbms()) as server:
        with BeliefClient(*server.address, wire=wire) as client:
            _exercise(client, f"sa-{wire}")
            want = CODEC_JSON if wire == "json" else CODEC_BINARY
            assert client._codec.name == want


@pytest.mark.parametrize("wire", WIRES)
def test_async_server_async_client(wire):
    async def main():
        async with await AsyncBeliefClient.connect(
            *server.address, wire=wire
        ) as client:
            assert await client.ping()
            info = await client.login("Carol", create=True)
            assert info["user_name"] == "Carol"
            row = [f"aa-{wire}"] + ROW[1:]
            inserted = await client.execute_prepared(INSERT, row)
            assert inserted["rowcount"] == 1
            page = await client.execute_prepared(
                "select S.species from BELIEF 'Carol' Sightings as S "
                f"where S.sid = 'aa-{wire}'"
            )
            assert page["rows"] == [["bald eagle"]]
            for op, params in RETIRED:
                with pytest.raises(
                    BeliefDBError, match=f"unknown operation '{op}'"
                ):
                    await client.call(op, **params)
            want = CODEC_JSON if wire == "json" else CODEC_BINARY
            assert client._codec.name == want

    with AsyncBeliefServer(_dbms()) as server:
        asyncio.run(main())


@pytest.fixture(scope="module")
def cluster():
    with ShardCluster(n_shards=2) as c:
        yield c


@pytest.mark.parametrize("wire", WIRES)
def test_shard_router(cluster, wire):
    with BeliefClient(*cluster.address, wire=wire) as client:
        _exercise(client, f"sh-{wire}")
        want = CODEC_JSON if wire == "json" else CODEC_BINARY
        assert client._codec.name == want


# ------------------------------------------------------------ mixed sessions


def test_mixed_codecs_share_one_server_concurrently():
    """8 binary + 8 json sessions interleaving on the same threaded core."""
    with BeliefServer(_dbms()) as server:
        barrier = threading.Barrier(16, timeout=30)
        errors: list = []

        def worker(i: int, wire: str) -> None:
            try:
                with BeliefClient(*server.address, wire=wire) as client:
                    client.login(f"u{i}", create=True)
                    barrier.wait(timeout=30)
                    for j in range(10):
                        client.execute_prepared(
                            INSERT, [f"m{i}-{j}", f"u{i}", "crow", "d", "l"]
                        )
                    got = client.drain(client.execute_prepared(
                        f"select S.sid from BELIEF 'u{i}' Sightings as S "
                        f"where S.uid = 'u{i}'"
                    ))
                    assert len(got) == 10
            except Exception as exc:  # noqa: BLE001
                errors.append((i, wire, exc))

        threads = [
            threading.Thread(
                target=worker, args=(i, "binary" if i % 2 else "json")
            )
            for i in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors


# ----------------------------------------------------- JSON-only degradation


def test_auto_degrades_against_json_only_server():
    with BeliefServer(_dbms(), wire="json") as server:
        with BeliefClient(*server.address, wire="auto") as client:
            _exercise(client, "deg-auto")
            assert client._codec.name == CODEC_JSON


def test_strict_binary_fails_closed_against_json_only_server():
    with BeliefServer(_dbms(), wire="json") as server:
        client = BeliefClient(*server.address, wire="binary")
        try:
            with pytest.raises(ProtocolError, match="negotiated"):
                client.ping()
        finally:
            client.close()


def test_binary_client_reconnects_onto_json_only_server():
    """The ISSUE cell: a binary session re-negotiates down on reconnect."""
    with BeliefServer(_dbms()) as negotiating:
        client = BeliefClient(*negotiating.address, wire="auto")
        try:
            assert client.ping()
            assert client._codec.name == CODEC_BINARY
            with BeliefServer(_dbms(), wire="json") as floor:
                client.host, client.port = floor.address
                client.reconnect()
                _exercise(client, "recon")
                assert client._codec.name == CODEC_JSON
        finally:
            client.close()


def test_json_pinned_server_still_serves_json_clients():
    with BeliefServer(_dbms(), wire="json") as server:
        with BeliefClient(*server.address, wire="json") as client:
            _exercise(client, "floor")
