"""Server lifecycle, session semantics, and error handling over the wire."""

from __future__ import annotations

import socket
import struct

import pytest

from repro.bdms.bdms import BeliefDBMS
from repro.bdms.repl import RemoteShell
from repro.core.schema import sightings_schema
from repro.errors import BeliefDBError, RejectedUpdateError
from repro.server import BeliefClient, BeliefServer
from repro.server.client import ConnectionLost
from repro.server.server import ReadWriteLock

S1 = ["s1", "Carol", "bald eagle", "6-14-08", "Lake Forest"]
INSERT = "insert into Sightings values (?,?,?,?,?)"


@pytest.fixture
def server():
    with BeliefServer(BeliefDBMS(sightings_schema())) as srv:
        yield srv


@pytest.fixture
def client(server):
    with BeliefClient(*server.address) as c:
        yield c


# ------------------------------------------------------------------ lifecycle


def test_start_assigns_ephemeral_port(server):
    host, port = server.address
    assert host == "127.0.0.1"
    assert port > 0
    assert server.running


def test_stop_is_idempotent():
    server = BeliefServer(BeliefDBMS(sightings_schema())).start()
    server.stop()
    server.stop()
    assert not server.running


def test_server_restarts_after_stop():
    server = BeliefServer(BeliefDBMS(sightings_schema()))
    server.start()
    first = server.address
    server.stop()
    server.start()
    try:
        with BeliefClient(*server.address) as c:
            assert c.ping()
    finally:
        server.stop()
    assert first is not None


def test_double_start_rejected(server):
    with pytest.raises(BeliefDBError):
        server.start()


def test_client_connect_refused_after_stop():
    server = BeliefServer(BeliefDBMS(sightings_schema())).start()
    address = server.address
    server.stop()
    with pytest.raises(ConnectionLost):
        BeliefClient(*address, connect_retries=2, retry_delay=0.01)


def test_graceful_client_disconnect(server):
    c1 = BeliefClient(*server.address)
    c1.ping()
    c1.close()
    # The server survives the disconnect and keeps serving new clients.
    with BeliefClient(*server.address) as c2:
        assert c2.ping()
    stats = None
    with BeliefClient(*server.address) as c3:
        stats = c3.stats()
    assert stats["server"]["connections_total"] >= 3


def test_stop_unblocks_connected_clients(server):
    client = BeliefClient(*server.address)
    assert client.ping()
    server.stop()
    with pytest.raises(ConnectionLost):
        client.ping()
        client.ping()  # first call may see the close as clean EOF


# ------------------------------------------------------------- op round trips


def test_ping(client):
    assert client.ping() is True


def test_user_management(client):
    uid = client.add_user("Carol")
    assert client.users() == {uid: "Carol"}


def test_login_requires_existing_user_without_create(client):
    with pytest.raises(BeliefDBError):
        client.login("Nobody")


def test_login_create_and_whoami(client):
    info = client.login("Carol", create=True)
    assert info["user_name"] == "Carol"
    assert info["default_path"] == [info["user"]]
    assert client.whoami()["user_name"] == "Carol"
    info = client.logout()
    assert info["user"] is None
    assert client.whoami()["default_path"] == []


def test_session_rewrites_plain_insert_to_own_world(client):
    info = client.login("Carol", create=True)
    uid = info["user"]
    client.execute_prepared("insert into Sightings values (?,?,?,?,?)", S1)
    # The tuple landed in Carol's world, not in plain content.
    assert client.believes("Sightings", S1, path=[uid])
    world_root = client.world(path=[])
    assert world_root["positives"] == []


def test_explicit_belief_prefix_wins_over_session(client):
    client.login("Carol", create=True)
    client.add_user("Bob")
    client.execute_prepared(
        "insert into BELIEF 'Bob' Sightings values "
        "('s2','Alice','crow','6-14-08','Lake Placid')"
    )
    assert client.believes(
        "Sightings", ["s2", "Alice", "crow", "6-14-08", "Lake Placid"],
        path=["Bob"],
    )


def test_set_path_controls_default_world(client):
    client.login("Carol", create=True)
    client.set_path([])  # back to plain content
    client.execute_prepared(INSERT, S1)
    root = client.world(path=[])
    assert len(root["positives"]) == 1


def test_insert_query_delete_cycle(client):
    client.login("Carol", create=True)
    assert client.execute_prepared(INSERT, S1)["rowcount"] == 1
    payload = client.execute_prepared("select S.sid, S.species "
                                      "from BELIEF 'Carol' Sightings as S")
    assert payload["rows"] == [["s1", "bald eagle"]]
    deleted = client.execute_prepared(
        "delete from Sightings values (?,?,?,?,?)", S1
    )
    assert deleted["rowcount"] == 1
    assert client.execute_prepared(
        "select S.sid from BELIEF 'Carol' Sightings as S"
    )["rows"] == []


def test_dispute_inserts_negative_belief(client):
    client.execute_prepared(INSERT, S1)  # no login: the root world
    client.add_user("Bob")
    bob = BeliefClient(*((client.host, client.port)))
    try:
        bob.login("Bob")
        disputed = bob.execute_prepared(
            "insert into not Sightings values (?,?,?,?,?)", S1
        )
        assert disputed["rowcount"] == 1
        assert bob.believes("Sightings", S1, sign="-")
        assert not bob.believes("Sightings", S1)
    finally:
        bob.close()


def test_rejected_update_raises_matching_local_class(client):
    client.login("Carol", create=True)
    client.execute_prepared(INSERT, S1)
    with pytest.raises(RejectedUpdateError):
        client.execute_prepared(INSERT, S1)  # duplicate


def test_unknown_op_gets_error_response_not_disconnect(server, client):
    with pytest.raises(BeliefDBError):
        client.call("frobnicate")
    assert client.ping()  # connection survived


def test_malformed_sql_gets_error_response(client):
    with pytest.raises(BeliefDBError):
        client.execute_prepared("insert bogus syntax here")
    assert client.ping()


def test_stats_and_introspection(client):
    client.login("Carol", create=True)
    client.execute_prepared(INSERT, S1)
    stats = client.stats()
    assert stats["users"] == 1
    assert stats["annotations"] == 1
    assert stats["server"]["ops_served"] >= 2
    assert "BeliefDBMS" in client.describe()
    assert "states" in client.kripke()
    worlds = client.worlds()
    assert any(w["positives"] == 1 for w in worlds)


def test_garbage_frame_drops_connection(server):
    raw = socket.create_connection(server.address, timeout=5)
    try:
        raw.sendall(struct.pack(">I", 16) + b"definitely not {")
        assert raw.recv(1024) == b""  # server hung up: fail closed
    finally:
        raw.close()
    # ... but the server itself is fine.
    with BeliefClient(*server.address) as c:
        assert c.ping()
        assert c.stats()["server"]["protocol_errors"] >= 1


def test_oversized_frame_drops_connection(server):
    raw = socket.create_connection(server.address, timeout=5)
    try:
        raw.sendall(struct.pack(">I", 1 << 31))
        assert raw.recv(1024) == b""
    finally:
        raw.close()
    with BeliefClient(*server.address) as c:
        assert c.ping()


# ------------------------------------------------------------- remote shell


def test_remote_shell_against_server(server):
    with BeliefClient(*server.address) as c:
        shell = RemoteShell(c)
        out = shell.run_script([
            "\\login Carol",
            "insert into Sightings values "
            "('s1','Carol','bald eagle','6-14-08','Lake Forest')",
            "\\whoami",
            "\\worlds",
            "\\users",
            "\\stats",
            "\\quit",
        ])
    assert "logged in as 'Carol'" in out[0]
    assert out[1] == "ok"
    assert "'Carol'" in out[2]
    assert any("1+" in line for line in out[3].splitlines())
    assert "Carol" in out[4]
    assert "annotations: 1" in out[5]
    assert out[6] == "bye"


# ------------------------------------------------------------ readers-writer


def test_rwlock_allows_concurrent_readers():
    import threading

    lock = ReadWriteLock()
    inside = threading.Barrier(3, timeout=5)

    def reader():
        with lock.read():
            inside.wait()  # all three readers are inside together

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
    assert not any(t.is_alive() for t in threads)


def test_rwlock_writer_is_exclusive():
    import threading

    lock = ReadWriteLock()
    order: list[str] = []
    lock.acquire_write()

    def reader():
        with lock.read():
            order.append("read")

    t = threading.Thread(target=reader)
    t.start()
    t.join(timeout=0.2)
    assert t.is_alive()  # blocked behind the writer
    order.append("write")
    lock.release_write()
    t.join(timeout=5)
    assert order == ["write", "read"]
