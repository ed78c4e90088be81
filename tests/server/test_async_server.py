"""AsyncBeliefServer: lifecycle, semantics parity, concurrency, durability.

The pipelined core must be a drop-in replacement for the threaded server:
same ops, same readers-writer discipline (the WAL recovers to an
identical database), same session semantics, same durable-checkpoint
behavior. Plus the new properties: genuinely concurrent in-flight requests
per connection, bounded by ``max_inflight``.
"""

from __future__ import annotations

import gc
import threading
import time

import pytest

from repro.api import connect
from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import experiment_schema, sightings_schema
from repro.errors import BeliefDBError
from repro.server import AsyncBeliefServer, BeliefClient
from repro.server.client import ConnectionLost
from repro.workload.generator import concurrent_trace
from tests.wal_oracle import durable_db, recovered_from_wal, wal_records
from tests.wire_sql import tuple_write

S1 = ["s1", "Carol", "bald eagle", "6-14-08", "Lake Forest"]


@pytest.fixture
def server():
    with AsyncBeliefServer(BeliefDBMS(sightings_schema(), strict=False)) as srv:
        yield srv


# ------------------------------------------------------------------ lifecycle


def test_start_assigns_ephemeral_port(server):
    host, port = server.address
    assert host == "127.0.0.1"
    assert port > 0
    assert server.running


def test_stop_is_idempotent():
    server = AsyncBeliefServer(BeliefDBMS(sightings_schema())).start()
    server.stop()
    server.stop()
    assert not server.running


def test_server_restarts_after_stop():
    server = AsyncBeliefServer(BeliefDBMS(sightings_schema()))
    server.start()
    server.stop()
    server.start()
    try:
        with BeliefClient(*server.address) as c:
            assert c.ping()
    finally:
        server.stop()


def test_stop_with_live_connections():
    server = AsyncBeliefServer(BeliefDBMS(sightings_schema())).start()
    client = BeliefClient(*server.address)
    assert client.ping()
    server.stop()  # must not hang on the open connection
    assert not server.running
    client.close()


def test_stop_closes_connections_with_requests_in_flight():
    """Stopping cancels each connection's wait for its in-flight requests —
    here, inserts held in the worker pool until the loop has cancelled
    every task — and the connection is closed all the same: a client
    reading a pending reply sees the server go away, not a socket left
    open until its own read timeout or until the cyclic GC happens to
    collect the transport (hence the GC is off here)."""
    server = AsyncBeliefServer(BeliefDBMS(sightings_schema(), strict=False))
    server.start()
    tasks_cancelled = threading.Event()
    dispatch = server._dispatch

    def held_dispatch(session, request):
        if request.op == "execute_prepared":
            tasks_cancelled.wait(5)
        return dispatch(session, request)

    server._dispatch = held_dispatch
    shutdown = server._executor.shutdown

    def shutdown_after_the_tasks(*args, **kwargs):
        tasks_cancelled.set()  # the loop drains the pool after the tasks
        return shutdown(*args, **kwargs)

    server._executor.shutdown = shutdown_after_the_tasks
    client = BeliefClient(*server.address, timeout=20.0)
    try:
        client.login("Carol", create=True)
        pending = [
            client.submit(
                "execute_prepared",
                sql="insert into Sightings values (?,?,?,?,?)",
                params=[f"p{i}", "Carol", "crow", "d", "l"],
            )
            for i in range(6)
        ]
        gc.disable()
        server.stop()
        for reply in pending:
            with pytest.raises(ConnectionLost) as lost:
                reply.result()
            assert "timed out" not in str(lost.value)
    finally:
        gc.enable()
        tasks_cancelled.set()
        client.close()
        server.stop()


def test_rejects_bad_max_inflight():
    with pytest.raises(BeliefDBError):
        AsyncBeliefServer(BeliefDBMS(sightings_schema()), max_inflight=0)


# ------------------------------------------------------------------ pipelining


def test_inflight_requests_complete_out_of_order(server, monkeypatch):
    """A cheap request pipelined behind an expensive one overtakes it —
    the observable difference between the async and threaded cores."""
    db = server.db
    db.add_user("Carol")
    for i in range(3):
        db.insert([], "Sightings", [f"s{i:04d}", "Carol", "crow", "d", "l"])
    # The select is held until the ping has returned, so the ping overtakes
    # it by construction, however fast the select is.
    ping_returned = threading.Event()
    execute_prepared = db.execute_prepared

    def held(*args, **kwargs):
        assert ping_returned.wait(30), "the ping never got past the select"
        return execute_prepared(*args, **kwargs)

    monkeypatch.setattr(db, "execute_prepared", held)
    with BeliefClient(*server.address) as client:
        slow = client.submit(
            "execute_prepared",
            sql="select S.sid, S.species, S.date from Sightings as S",
        )
        fast = client.submit("ping")
        # The threaded core answers a connection's requests in order: there
        # the ping would wait behind the select, and the select for the ping.
        assert fast.result() == "pong"
        assert not slow.done()
        ping_returned.set()
        assert len(slow.result()["rows"]) == 3


def test_max_inflight_one_still_serves(monkeypatch):
    db = BeliefDBMS(sightings_schema(), strict=False)
    with AsyncBeliefServer(db, max_inflight=1) as server:
        with BeliefClient(*server.address) as client:
            pending = [client.submit("ping") for _ in range(10)]
            assert [p.result() for p in pending] == ["pong"] * 10


# ------------------------------------------------------ concurrency parity


def test_concurrent_workload_linearizes(tmp_path):
    """8 concurrent pipelined clients; a fresh database recovered from the
    run's WAL must equal the live one — write-lock order is serial order,
    same as the threaded server."""
    db = durable_db(experiment_schema(), tmp_path / "data")
    streams = concurrent_trace(8, 30, seed=23)
    accepted: list = []
    with AsyncBeliefServer(db) as server:
        errors: list = []

        def drive(name: str, ops) -> None:
            try:
                with BeliefClient(*server.address) as client:
                    client.login(name, create=True)
                    window: list = []
                    for op in ops:
                        if op.kind == "select":
                            client.drain(client.execute_prepared(op.sql))
                            continue
                        sql, params = tuple_write(
                            "insert", op.relation, op.values,
                            sign="+" if op.kind == "insert" else "-",
                        )
                        window.append(client.submit(
                            "execute_prepared", sql=sql, params=params,
                        ))
                        if len(window) >= 8:
                            accepted.extend(
                                r.result()["rowcount"] for r in window
                            )
                            window.clear()
                    accepted.extend(r.result()["rowcount"] for r in window)
            except Exception as exc:  # noqa: BLE001
                errors.append((name, exc))

        threads = [
            threading.Thread(target=drive, args=(name, ops))
            for name, ops in streams.items()
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads), "clients deadlocked"
        assert not errors, errors

    log = wal_records(db)
    assert [r["seq"] for r in log] == list(range(1, len(log) + 1))
    # A rejected op leaves no WAL record and no state.
    assert sum(r["op"] == "execute" for r in log) == sum(accepted)
    assert db.annotation_count() == sum(accepted)
    with recovered_from_wal(db):
        pass  # explicit statements, users, entailed worlds all compared


def test_api_connect_works_against_async_server(server):
    host, port = server.address
    with connect(f"{host}:{port}", user="Carol") as conn:
        cur = conn.cursor()
        cur.executemany(
            "insert into Sightings values (?,?,?,?,?)",
            [(f"s{i}", "Carol", "crow", "d", "l") for i in range(5)],
        )
        result = cur.execute(
            "select S.sid from BELIEF ? Sightings as S", ("Carol",)
        )
        assert result.rowcount == 5


def test_result_paging_survives_pipelining(server, monkeypatch):
    """Tiny wire pages + pipelined fetch ops on the async core: the per-
    session cursor registry is shared by concurrently executing requests,
    and every page must still arrive exactly once, in order."""
    import repro.server.server as server_mod

    monkeypatch.setattr(server_mod, "DEFAULT_PAGE_ROWS", 3)
    with BeliefClient(*server.address) as client:
        client.execute_batch(
            "insert into Sightings values (?,?,?,?,?)",
            [[f"s{i:02d}", "Carol", "crow", "d", "l"] for i in range(25)],
        )
        payload = client.execute_prepared(
            "select S.sid from Sightings as S", max_rows=3
        )
        assert payload["has_more"] and payload["cursor"] is not None
        rows = client.drain(payload)
        assert [row[0] for row in rows] == [f"s{i:02d}" for i in range(25)]
        # A second paged result, drained while OTHER requests pipeline
        # through the same connection, still pages correctly.
        payload = client.execute_prepared(
            "select S.sid from Sightings as S", max_rows=3
        )
        pings = [client.submit("ping") for _ in range(5)]
        rows = client.drain(payload)
        assert len(rows) == 25
        assert [p.result() for p in pings] == ["pong"] * 5


# ------------------------------------------------------------------ durability


def test_durable_async_server_checkpoints(tmp_path):
    from repro.durability import DurabilityManager

    data_dir = str(tmp_path / "data")
    db = BeliefDBMS(
        sightings_schema(), strict=False,
        durability=DurabilityManager(data_dir),
    )
    with AsyncBeliefServer(db, checkpoint_interval=0.1) as server:
        with BeliefClient(*server.address) as client:
            client.login("Carol", create=True)
            client.execute_batch(
                "insert into Sightings values (?,?,?,?,?)",
                [[f"s{i}", "Carol", "crow", "d", "l"] for i in range(10)],
            )
            deadline = time.time() + 10
            while time.time() < deadline:
                if server.stats["checkpoints"] > 0:
                    break
                time.sleep(0.02)
            assert server.stats["checkpoints"] > 0
    db.close()

    recovered = BeliefDBMS(
        sightings_schema(), strict=False,
        durability=DurabilityManager(data_dir),
    )
    try:
        assert recovered.annotation_count() == db.annotation_count()
        for i in range(10):
            assert recovered.believes(
                ["Carol"], "Sightings", [f"s{i}", "Carol", "crow", "d", "l"]
            )
    finally:
        recovered.close()


def test_unframeable_response_gets_typed_error_and_connection_survives(server):
    """A response that cannot be framed (> max_frame_bytes) is replaced by
    a small typed FRAME_TOO_LARGE error frame — the client gets a real
    error to act on and the connection keeps working."""
    from repro.errors import FrameTooLargeError

    big = "x" * 300_000
    with BeliefClient(*server.address) as client:
        for i in range(4):
            client.execute_prepared(
                "insert into Sightings values (?,?,?,?,?)",
                [f"s{i}", "Carol", big, "d", "l"],
            )
        with pytest.raises(FrameTooLargeError, match="frame ceiling"):
            # The world op answers in one frame: ~1.2 MiB of tuples here,
            # over the 1 MiB ceiling. (Selects and BCQs page by bytes.)
            client.world()
        assert client.ping()  # same connection, still serving


def test_stats_op_reports_server_counters(server):
    with BeliefClient(*server.address) as client:
        client.ping()
        stats = client.stats()
        assert stats["server"]["connections_total"] >= 1
        assert stats["server"]["ops_served"] >= 1
