"""Client behavior across server restarts: the bounded reconnect path.

Contract under test (see :class:`BeliefClient`): a lost *response* is never
retried (the op may have been applied server-side) and surfaces as a clear
:class:`ConnectionLost`; with ``auto_reconnect`` the *next* call makes one
bounded reconnect attempt, as does a call that finds the connection closed
while nothing was in flight; an explicitly closed client stays closed; and a
:class:`~repro.api.connection.RemoteConnection` replays its login/default
path onto the fresh session so a restart is transparent at the API layer.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.api import connect
from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.server import BeliefClient, BeliefServer
from repro.server.client import ConnectionLost


@pytest.fixture
def db():
    return BeliefDBMS(sightings_schema(), strict=False)


def _restart(db: BeliefDBMS, port: int) -> BeliefServer:
    """A fresh server on the same port and the same shared database."""
    return BeliefServer(db, port=port).start()


def test_auto_reconnect_survives_server_restart(db):
    server = BeliefServer(db).start()
    host, port = server.address
    client = BeliefClient(host, port, auto_reconnect=True)
    try:
        client.login("Carol", create=True)
        server.stop()
        # Nothing was in flight, so the client sees the close before it
        # sends; nothing is listening yet, so the call's single bounded
        # reconnect attempt fails clearly.
        with pytest.raises(ConnectionLost, match="one reconnect attempt"):
            client.ping()
        server = _restart(db, port)
        assert client.ping()  # reconnected transparently
        assert client.call("whoami")["user"] is None  # raw client: no session
    finally:
        client.close()
        server.stop()


def test_request_lost_in_flight_is_never_retried():
    """A call whose request reached the server but whose response never
    came fails with a message that its outcome is unknown, and is not
    resent on a fresh connection, even with ``auto_reconnect``. The server
    here reads one request and hangs up without answering."""
    listener = socket.create_server(("127.0.0.1", 0))
    received: list[bytes] = []

    def read_one_then_hang_up() -> None:
        conn, _ = listener.accept()
        with conn:
            received.append(conn.recv(65536))

    thread = threading.Thread(target=read_one_then_hang_up)
    thread.start()
    client = BeliefClient(
        *listener.getsockname(), auto_reconnect=True, wire="json"
    )
    try:
        with pytest.raises(ConnectionLost, match="may or may not"):
            client.ping()
        thread.join(timeout=5)
        assert len(received) == 1 and received[0]  # sent once, not resent
    finally:
        client.close()
        listener.close()


def test_without_auto_reconnect_connection_stays_dead(db):
    server = BeliefServer(db).start()
    host, port = server.address
    client = BeliefClient(host, port)
    try:
        assert client.ping()
        server.stop()
        with pytest.raises(ConnectionLost):
            client.ping()
            client.ping()
        server = _restart(db, port)
        with pytest.raises(ConnectionLost, match="auto_reconnect disabled"):
            client.ping()
    finally:
        client.close()
        server.stop()


def test_explicit_close_beats_auto_reconnect(db):
    with BeliefServer(db) as server:
        host, port = server.address
        client = BeliefClient(host, port, auto_reconnect=True)
        client.close()
        with pytest.raises(ConnectionLost, match="client is closed"):
            client.ping()
        with pytest.raises(ConnectionLost, match="client is closed"):
            client.reconnect()


def test_manual_reconnect_method(db):
    server = BeliefServer(db).start()
    host, port = server.address
    client = BeliefClient(host, port)  # even without auto_reconnect
    try:
        server.stop()
        with pytest.raises(ConnectionLost):
            client.ping()
            client.ping()
        server = _restart(db, port)
        client.reconnect()
        assert client.ping()
    finally:
        client.close()
        server.stop()


def test_remote_connection_restores_session_on_reconnect(db):
    server = BeliefServer(db).start()
    host, port = server.address
    conn = connect(f"{host}:{port}", user="Carol")  # reconnect=True default
    try:
        conn.execute(
            "insert into Sightings values (?,?,?,?,?)",
            ("s1", "Carol", "bald eagle", "6-14-08", "Lake Forest"),
        )
        server.stop()
        with pytest.raises(ConnectionLost):
            conn.execute(
                "insert into Sightings values (?,?,?,?,?)",
                ("s2", "Carol", "crow", "6-15-08", "Union Bay"),
            )
            conn.client.ping()
        server = _restart(db, port)
        # The next statement reconnects AND replays login, so the plain
        # insert still lands in Carol's belief world.
        result = conn.execute(
            "insert into Sightings values (?,?,?,?,?)",
            ("s3", "Carol", "osprey", "6-16-08", "Mount Si"),
        )
        assert result.ok
        assert conn.user == "Carol"
        assert db.believes(
            ["Carol"], "Sightings",
            ("s3", "Carol", "osprey", "6-16-08", "Mount Si"),
        )
    finally:
        conn.close()
        server.stop()


def test_remote_connection_restores_explicit_path(db):
    server = BeliefServer(db).start()
    host, port = server.address
    conn = connect(f"{host}:{port}", user="Carol")
    try:
        conn.add_user("Bob")
        conn.set_path(["Carol", "Bob"])
        server.stop()
        with pytest.raises(ConnectionLost):
            conn.client.ping()
            conn.client.ping()
        server = _restart(db, port)
        conn.execute(
            "insert into Sightings values (?,?,?,?,?)",
            ("s9", "Bob", "raven", "7-01-08", "Cedar River"),
        )
        assert conn.default_path == (
            db.uid("Carol"), db.uid("Bob"),
        )
        assert db.believes(
            ["Carol", "Bob"], "Sightings",
            ("s9", "Bob", "raven", "7-01-08", "Cedar River"),
        )
    finally:
        conn.close()
        server.stop()


def test_send_failure_never_resends_session_handles(db, monkeypatch):
    """A request naming a prepared-statement handle must not be resent on a
    fresh connection — the handle died with the old session, and resending
    would surface a misleading 'unknown statement' instead of the truth."""
    from repro.server import binproto as binproto_module
    from repro.server import protocol as protocol_module

    with BeliefServer(db) as server:
        host, port = server.address
        client = BeliefClient(host, port, auto_reconnect=True)
        try:
            client.login("Carol", create=True)
            statement = client.prepare(
                "insert into Sightings values (?,?,?,?,?)"
            )
            real_write = protocol_module.write_frame
            real_bin_write = binproto_module.BinaryCodec.write
            calls = {"n": 0}

            def failing_write(sock, payload, max_frame_bytes=None):
                calls["n"] += 1
                raise OSError("connection reset by peer")

            # Cut both write seams: JSON frames go through the protocol
            # module, a negotiated binary connection through its codec.
            monkeypatch.setattr(protocol_module, "write_frame", failing_write)
            monkeypatch.setattr(
                binproto_module.BinaryCodec, "write",
                lambda self, sock, payload, max_frame_bytes=None:
                    failing_write(sock, payload, max_frame_bytes),
            )
            with pytest.raises(ConnectionLost, match="connection to server"):
                client.execute_prepared(
                    statement,
                    ("s1", "Carol", "crow", "6-14-08", "Lake Forest"),
                )
            # One send attempt, no reconnect+resend for the stale handle.
            assert calls["n"] == 1
            monkeypatch.setattr(protocol_module, "write_frame", real_write)
            monkeypatch.setattr(
                binproto_module.BinaryCodec, "write", real_bin_write
            )
            # The next call (no session handles) reconnects as usual.
            assert client.ping()
        finally:
            client.close()


def test_dropped_connection_never_replays_stale_handles(db):
    """After a drop, a call naming an old prepared-statement/cursor handle
    raises ConnectionLost instead of reconnecting into a fresh session that
    would answer 'unknown statement'; handle-free calls reconnect fine."""
    server = BeliefServer(db).start()
    host, port = server.address
    client = BeliefClient(host, port, auto_reconnect=True)
    try:
        client.login("Carol", create=True)
        statement = client.prepare("select S.sid from Sightings as S")
        server.stop()
        with pytest.raises(ConnectionLost):
            client.ping()
            client.ping()
        server = _restart(db, port)
        with pytest.raises(ConnectionLost, match="per-session state"):
            client.execute_prepared(statement)
        with pytest.raises(ConnectionLost, match="per-session state"):
            client.fetch(1)
        assert client.ping()  # handle-free call: reconnects as designed
    finally:
        client.close()
        server.stop()


def test_reconnect_against_durable_server_keeps_history(tmp_path):
    """The full story: durable server + reconnecting client = restart is
    invisible — pre-restart writes are still there, the session works."""
    from repro.durability import DurabilityManager

    data_dir = str(tmp_path / "data")
    db1 = BeliefDBMS(
        sightings_schema(), strict=False,
        durability=DurabilityManager(data_dir),
    )
    server = BeliefServer(db1).start()
    host, port = server.address
    conn = connect(f"{host}:{port}", user="Carol")
    try:
        conn.execute(
            "insert into Sightings values (?,?,?,?,?)",
            ("s1", "Carol", "bald eagle", "6-14-08", "Lake Forest"),
        )
        server.stop()
        db1.close()  # crash-equivalent: no checkpoint

        db2 = BeliefDBMS(
            sightings_schema(), strict=False,
            durability=DurabilityManager(data_dir),
        )
        server = BeliefServer(db2, port=port).start()
        result = conn.execute(
            "select S.sid, S.species from BELIEF ? Sightings as S",
            ("Carol",),
        )
        assert ("s1", "bald eagle") in result.rows
        db2.close()
    finally:
        conn.close()
        server.stop()
