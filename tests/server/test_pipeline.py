"""Pipelining: out-of-order response correlation, drains, and batching.

The contract under test (see :mod:`repro.server.protocol`): any number of
requests may be in flight on one connection; responses correlate strictly by
request id, so they resolve the right :class:`PendingReply` regardless of
arrival order; a connection that dies — or is reconnected, or closed — with
requests in flight fails **all** of them explicitly; and ``execute_batch``
binds one prepared DML statement N times in one round trip.

Both server cores serve the same frames: the threaded server answers in
request order, the asyncio server completes in-flight requests concurrently
(genuinely out of order). The correlation fuzz runs against both.
"""

from __future__ import annotations

import random
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.errors import BeliefDBError, RejectedUpdateError
from repro.server import (
    AsyncBeliefServer,
    BeliefClient,
    BeliefServer,
    protocol,
)
from repro.server.client import ConnectionLost
from tests.wal_oracle import durable_db, recovered_from_wal, wal_records

S = ["s1", "Carol", "bald eagle", "6-14-08", "Lake Forest"]

SERVER_CORES = ("threaded", "async")


def _make_server(core: str, db: BeliefDBMS):
    if core == "async":
        return AsyncBeliefServer(db)
    return BeliefServer(db)


@pytest.fixture(params=SERVER_CORES)
def core(request):
    return request.param


@pytest.fixture
def server(core):
    with _make_server(core, BeliefDBMS(sightings_schema(), strict=False)) as srv:
        yield srv


@pytest.fixture
def client(server):
    with BeliefClient(*server.address) as c:
        yield c


# -------------------------------------------------------------- correlation


def test_pipelined_window_resolves_in_any_order(client):
    client.login("Carol", create=True)
    pending = [
        client.submit(
            "insert", relation="Sightings",
            values=[f"s{i}", "Carol", "crow", "d", "l"],
            path=None, sign="+",
        )
        for i in range(12)
    ]
    assert client.inflight == 12
    # Resolve in reverse submission order: each reply must still carry the
    # answer to ITS request (all accepts here — asserted per reply).
    for reply in reversed(pending):
        assert reply.result() is True
    assert client.inflight == 0


def test_each_reply_matches_its_request(client):
    """Distinguishable payloads prove correlation, not just completion."""
    for i in range(6):  # plain content (no session), visible to bare selects
        client.insert("Sightings", [f"s{i}", "Carol", f"species{i}", "d", "l"])
    pending = {
        i: client.submit(
            "execute_prepared",
            sql="select S.species from Sightings as S where S.sid = ?",
            params=[f"s{i}"],
        )
        for i in range(6)
    }
    order = list(pending)
    random.Random(7).shuffle(order)
    for i in order:
        payload = pending[i].result()
        assert payload["rows"] == [[f"species{i}"]], f"reply mismatch for s{i}"


def test_window_bound_drains_instead_of_wedging(core):
    """A pipeline far past max_inflight must keep flowing: at the cap,
    submit reads responses (buffering them) instead of stuffing both
    sockets' buffers until the connection wedges."""
    server = _make_server(core, BeliefDBMS(sightings_schema(), strict=False))
    with server:
        client = BeliefClient(*server.address, max_inflight=4)
        try:
            pending = [client.submit("ping") for _ in range(50)]
            # Never more than the cap awaiting the wire; the rest buffered.
            assert [p.result() for p in pending] == ["pong"] * 50
        finally:
            client.close()


def test_reply_resolves_exactly_once(client):
    reply = client.submit("ping")
    assert reply.result() == "pong"
    with pytest.raises(BeliefDBError, match="not in flight"):
        reply.result()


def test_errors_travel_back_to_the_right_reply(client):
    client.login("Carol", create=True)
    ok = client.submit("insert", relation="Sightings", values=list(S),
                       path=None, sign="+")
    bad = client.submit("insert", relation="NoSuchRelation", values=["x"],
                        path=None, sign="+")
    also_ok = client.submit("ping")
    assert ok.result() is True
    with pytest.raises(BeliefDBError):
        bad.result()
    assert also_ok.result() == "pong"


@settings(max_examples=25, deadline=None)
@given(
    resolve_order=st.permutations(list(range(8))),
    kinds=st.lists(
        st.sampled_from(["ping", "whoami", "users", "believes"]),
        min_size=8, max_size=8,
    ),
)
def test_fuzzed_interleavings_correlate(resolve_order, kinds):
    """N pipelined requests of mixed ops, resolved in a fuzzed permutation:
    every reply must match its request id's op."""
    db = BeliefDBMS(sightings_schema(), strict=False)
    db.add_user("Carol")
    with BeliefServer(db) as server:
        with BeliefClient(*server.address) as client:
            pending = []
            for kind in kinds:
                if kind == "believes":
                    pending.append((kind, client.submit(
                        "believes", relation="Sightings", values=list(S),
                        path=["Carol"], sign="+",
                    )))
                else:
                    pending.append((kind, client.submit(kind)))
            for index in resolve_order:
                kind, reply = pending[index]
                result = reply.result()
                if kind == "ping":
                    assert result == "pong"
                elif kind == "whoami":
                    assert result["user"] is None
                elif kind == "users":
                    assert ["Carol"] in [
                        [name] for _, name in result
                    ] or any(name == "Carol" for _, name in result)
                else:
                    assert result is False  # nothing inserted


@settings(max_examples=10, deadline=None)
@given(resolve_order=st.permutations(list(range(10))))
def test_fuzzed_interleavings_correlate_async_core(resolve_order):
    """Same fuzz against the asyncio core, where responses genuinely may
    return out of order: selects with distinct bound keys prove that the
    reply resolved for request i carries i's rows."""
    db = BeliefDBMS(sightings_schema(), strict=False)
    db.add_user("Carol")
    for i in range(10):
        db.insert([], "Sightings", [f"s{i}", "Carol", f"sp{i}", "d", "l"])
    with AsyncBeliefServer(db) as server:
        with BeliefClient(*server.address) as client:
            pending = [
                client.submit(
                    "execute_prepared",
                    sql="select S.species from Sightings as S "
                        "where S.sid = ?",
                    params=[f"s{i}"],
                )
                for i in range(10)
            ]
            for index in resolve_order:
                payload = pending[index].result()
                assert payload["rows"] == [[f"sp{index}"]]


# ------------------------------------------------------- pipeline teardown


def test_server_death_fails_every_inflight_reply(core):
    """Responses lost mid-pipeline: every pending reply surfaces the loss."""
    server = _make_server(core, BeliefDBMS(sightings_schema(), strict=False))
    server.start()
    client = BeliefClient(*server.address)
    try:
        pending = [client.submit("ping") for _ in range(5)]
        server.stop()
        failures = 0
        for reply in pending:
            try:
                reply.result()
            except ConnectionLost as exc:
                failures += 1
                assert "may or may not" in str(exc) or "lost" in str(exc)
            except BeliefDBError:
                failures += 1
        # The first resolve may still read buffered responses the server
        # flushed before dying; once the stream breaks, ALL remaining
        # pendings must fail — none may hang or resolve spuriously.
        assert client.inflight == 0
        if failures == 0:
            pytest.skip("server flushed every response before closing")
    finally:
        client.close()
        server.stop()


def test_a_hang_up_with_every_request_unanswered_fails_every_reply():
    """The deterministic form of the test above: a stub listener reads all
    five pipelined requests and closes without answering any, so no
    response can be flushed first and every pending reply must fail."""
    listener = socket.create_server(("127.0.0.1", 0))
    received: list[dict] = []

    def read_five_then_hang_up() -> None:
        conn, _ = listener.accept()
        with conn:
            for _ in range(5):
                received.append(protocol.read_frame(conn))

    thread = threading.Thread(target=read_five_then_hang_up, daemon=True)
    thread.start()
    client = BeliefClient(*listener.getsockname(), wire="json")
    try:
        pending = [client.submit("ping") for _ in range(5)]
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert [frame["op"] for frame in received] == ["ping"] * 5
        for reply in pending:
            with pytest.raises(ConnectionLost):
                reply.result()
        assert client.inflight == 0
    finally:
        client.close()
        listener.close()


def test_close_with_inflight_fails_pendings(client):
    reply = client.submit("ping")
    other = client.submit("ping")
    client.close()
    with pytest.raises(ConnectionLost, match="closed"):
        reply.result()
    with pytest.raises(ConnectionLost, match="closed"):
        other.result()


def test_reconnect_drains_inflight_first(core):
    """The reconnect satellite: an explicit reconnect must fail every
    in-flight request — their responses belong to the dead connection —
    and start the fresh connection with an empty pipeline."""
    server = _make_server(core, BeliefDBMS(sightings_schema(), strict=False))
    server.start()
    try:
        client = BeliefClient(*server.address, auto_reconnect=True)
        try:
            pending = [client.submit("ping") for _ in range(4)]
            client.reconnect()
            for reply in pending:
                with pytest.raises(ConnectionLost, match="re-established"):
                    reply.result()
            assert client.inflight == 0
            assert client.ping()  # fresh pipeline works
        finally:
            client.close()
    finally:
        server.stop()


def test_lost_pipeline_then_reconnect_never_replays(core):
    """Regression for responses lost mid-pipeline: after the server dies
    under a window of writes, the pendings fail, and the post-reconnect
    session sees only what the server acknowledged — the client never
    resends the lost window.

    The replacement server listens on a port of its own, and the client is
    pointed at it: rebinding the dead server's port assumed that nothing
    else on the machine took that just-released ephemeral port in between
    (``EADDRINUSE`` if something did), which the reconnect under test does
    not need."""
    db = BeliefDBMS(sightings_schema(), strict=False)
    server = _make_server(core, db)
    server.start()
    client = BeliefClient(*server.address, auto_reconnect=True)
    try:
        client.login("Carol", create=True)
        pending = [
            client.submit(
                "insert", relation="Sightings",
                values=[f"p{i}", "Carol", "crow", "d", "l"],
                path=["Carol"], sign="+",
            )
            for i in range(6)
        ]
        server.stop()
        outcomes = []
        for reply in pending:
            try:
                outcomes.append(reply.result())
            except BeliefDBError:
                outcomes.append("lost")
        applied_before = db.annotation_count()
        server = _make_server(core, db)
        server.start()
        client.port = server.address[1]
        # The next call reconnects; no lost insert is silently retried.
        assert client.ping()
        assert db.annotation_count() == applied_before
        acked = sum(1 for o in outcomes if o is True)
        assert acked <= applied_before  # every ack corresponds to a write
    finally:
        client.close()
        server.stop()


@pytest.mark.parametrize("auto_reconnect", [True, False])
def test_idle_client_learns_of_restart_before_sending(core, auto_reconnect):
    """A client that sat idle while the server closed its connection finds
    that out before its next request goes on the wire: with
    ``auto_reconnect`` the call reconnects and succeeds; without it the call
    fails saying the connection is gone, not that the request's outcome is
    unknown. Before, the request was written into the closed connection and
    the call failed either way."""
    db = BeliefDBMS(sightings_schema(), strict=False)
    server = _make_server(core, db)
    server.start()
    client = BeliefClient(*server.address, auto_reconnect=auto_reconnect)
    try:
        assert client.ping()
        server.stop()
        server = _make_server(core, db)
        server.start()
        client.port = server.address[1]
        if auto_reconnect:
            assert client.ping()
        else:
            with pytest.raises(ConnectionLost, match="auto_reconnect disabled"):
                client.ping()
    finally:
        client.close()
        server.stop()


def test_send_failure_with_inflight_never_resends(monkeypatch):
    """A send that dies while other requests are in flight must fail the
    whole pipeline — not quietly reconnect and resend its own frame while
    sibling responses evaporate.

    The server runs in this process and writes its frames through the same
    seams, so the cut applies to the client's thread only; and the server
    holds its answer to the first ping until the cut is in place, so that
    answer always crosses the patched seam. (Before both, the server's
    answer was counted as a second client send whenever it was late —
    ``2 == 1`` in about half of the full-suite runs.)"""
    from repro.server import binproto as binproto_module
    from repro.server import protocol as protocol_module

    with BeliefServer(BeliefDBMS(sightings_schema(), strict=False)) as server:
        answer_first = threading.Event()
        dispatch = server._dispatch

        def held_dispatch(session, request):
            if request.op == "ping":
                answer_first.wait(5)
            return dispatch(session, request)

        monkeypatch.setattr(server, "_dispatch", held_dispatch)
        client = BeliefClient(*server.address, auto_reconnect=True)
        try:
            first = client.submit("ping")
            real_write = protocol_module.write_frame
            real_bin_write = binproto_module.BinaryCodec.write
            client_thread = threading.current_thread()
            calls = {"n": 0}
            server_wrote = threading.Event()

            def cut(real):
                def write(*args):
                    if threading.current_thread() is not client_thread:
                        try:
                            return real(*args)
                        finally:
                            server_wrote.set()
                    calls["n"] += 1
                    raise OSError("wire cut")

                return write

            # Cut both write seams: JSON frames go through the protocol
            # module, a negotiated binary connection through its codec.
            monkeypatch.setattr(protocol_module, "write_frame", cut(real_write))
            monkeypatch.setattr(
                binproto_module.BinaryCodec, "write", cut(real_bin_write)
            )
            with pytest.raises(ConnectionLost):
                client.submit("ping")
            answer_first.set()
            assert server_wrote.wait(5)
            assert calls["n"] == 1  # no reconnect+resend with a live pipeline
            monkeypatch.setattr(protocol_module, "write_frame", real_write)
            monkeypatch.setattr(
                binproto_module.BinaryCodec, "write", real_bin_write
            )
            with pytest.raises(ConnectionLost):
                first.result()
        finally:
            answer_first.set()
            client.close()


# ------------------------------------------------------------ execute_batch


def test_execute_batch_inserts(client):
    client.login("Carol", create=True)
    payload = client.execute_batch(
        "insert into Sightings values (?,?,?,?,?)",
        [[f"s{i}", "Carol", "crow", "d", "l"] for i in range(20)],
    )
    assert payload["rowcount"] == 20
    assert payload["status"] == "INSERT 20"
    rows = client.drain(client.execute_prepared(
        "select S.sid from BELIEF 'Carol' Sightings as S"
    ))
    assert len(rows) == 20


def test_execute_batch_chunks_compose(client):
    client.login("Carol", create=True)
    payload = client.execute_batch(
        "insert into Sightings values (?,?,?,?,?)",
        [[f"c{i}", "Carol", "crow", "d", "l"] for i in range(7)],
        chunk_rows=3,  # 3 + 3 + 1
    )
    assert payload["rowcount"] == 7
    assert payload["status"] == "INSERT 7"


def test_execute_batch_rejects_select(client):
    with pytest.raises(BeliefDBError, match="DML"):
        client.execute_batch(
            "select S.sid from Sightings as S where S.sid = ?", [["s1"]]
        )


def test_execute_batch_empty_still_validates(client):
    payload = client.execute_batch(
        "insert into Sightings values (?,?,?,?,?)", []
    )
    assert payload["rowcount"] == 0
    assert payload["kind"] == "insert"


def test_wide_rows_chunk_by_bytes(client):
    """Row-count chunking alone would let wide rows blow the frame
    ceiling; the byte bound must kick in first."""
    client.login("Carol", create=True)
    big = "x" * 100_000  # ~100 KiB per row
    payload = client.execute_batch(
        "insert into Sightings values (?,?,?,?,?)",
        [[f"w{i}", "Carol", big, "d", "l"] for i in range(12)],
    )
    assert payload["rowcount"] == 12


def test_unframeable_row_fails_locally_without_killing_connection(client):
    """A single row too large for any frame raises the typed
    FrameTooLargeError locally — no connection teardown, no
    reconnect-and-retry of the same frame."""
    from repro.errors import FrameTooLargeError
    from repro.server.protocol import MAX_FRAME_BYTES

    huge = "x" * (MAX_FRAME_BYTES + 1024)
    with pytest.raises(FrameTooLargeError, match="frame ceiling"):
        client.execute_batch(
            "insert into Sightings values (?,?,?,?,?)",
            [["h1", "Carol", huge, "d", "l"]],
        )
    assert client.ping()  # the connection survived the local failure


def test_execute_batch_via_prepared_handle(client):
    client.login("Carol", create=True)
    statement = client.prepare("insert into Sightings values (?,?,?,?,?)")
    payload = client.execute_batch(
        statement, [[f"h{i}", "Carol", "crow", "d", "l"] for i in range(4)]
    )
    assert payload["rowcount"] == 4


def test_execute_batch_strict_stops_but_keeps_prefix(core, tmp_path):
    """Strict mode: the failing row raises; rows before it stay applied —
    the same outcome as issuing the statements one by one — and logged:
    memory and WAL agree on the prefix."""
    db = durable_db(sightings_schema(), tmp_path / "data", strict=True)
    db.add_user("Carol")
    server = _make_server(core, db)
    with server:
        with BeliefClient(*server.address) as client:
            with pytest.raises(RejectedUpdateError):
                client.execute_batch(
                    "insert into BELIEF 'Carol' Sightings values (?,?,?,?,?)",
                    [
                        ["a1", "Carol", "crow", "d", "l"],
                        ["a2", "Carol", "crow", "d", "l"],
                        ["a1", "Carol", "crow", "d", "l"],  # duplicate: rejected
                        ["a3", "Carol", "crow", "d", "l"],  # never reached
                    ],
                )
    assert db.believes(["Carol"], "Sightings", ["a1", "Carol", "crow", "d", "l"])
    assert db.believes(["Carol"], "Sightings", ["a2", "Carol", "crow", "d", "l"])
    assert not db.believes(["Carol"], "Sightings",
                           ["a3", "Carol", "crow", "d", "l"])
    assert [r["op"] for r in wal_records(db)] == ["add_user"] + ["execute"] * 2
    with recovered_from_wal(db, strict=True) as recovered:
        assert recovered.annotation_count() == 2


def test_batch_wal_recovers(core, tmp_path):
    """One execute_batch is one WAL append whose records recover to the
    same state."""
    db = durable_db(sightings_schema(), tmp_path / "data")
    with _make_server(core, db) as server:
        with BeliefClient(*server.address) as client:
            client.login("Carol", create=True)
            client.execute_batch(
                "insert into Sightings values (?,?,?,?,?)",
                [[f"r{i}", "Carol", "crow", "d", "l"] for i in range(5)],
            )
    assert [r["op"] for r in wal_records(db)] == ["add_user"] + ["execute"] * 5
    with recovered_from_wal(db) as recovered:
        assert recovered.annotation_count() == 5
