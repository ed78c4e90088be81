"""The transaction wire ops: per-session state, pipelining-adjacent rules,
WAL equivalence, and reconnect-abort semantics.

``begin``/``commit``/``rollback`` ride the same frames as every other op;
the transaction itself is **per-session** server state (like prepared
statements and cursors), shared by both server cores. The rules under
test:

* in-transaction DML stages (one-tuple writes are DML too); other
  sessions are unaffected and the lifecycle write op is rejected loudly;
* ``commit`` applies under one write-lock acquisition and lands in the
  WAL as one framed group that recovers to the identical state;
* a lost connection aborts — never silently retries — an open
  transaction, both for raw auto-reconnect clients and for the
  :class:`~repro.api.connection.RemoteConnection` reconnect hook.
"""

from __future__ import annotations

import pytest

from repro.api import connect
from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.server import AsyncBeliefServer, BeliefClient, BeliefServer
from repro.server.client import ConnectionLost
from repro.errors import TransactionAbortedError, TransactionError
from tests.wal_oracle import durable_db, recovered_from_wal, wal_records

CORES = pytest.mark.parametrize(
    "core", [BeliefServer, AsyncBeliefServer], ids=["threaded", "async"]
)

INSERT = "insert into Sightings values (?,?,?,?,?)"
ROW = ["s1", "Carol", "bald eagle", "6-14-08", "Lake Forest"]


def _server(core, **kwargs):
    db = BeliefDBMS(sightings_schema(), strict=False)
    return db, core(db, **kwargs)


@CORES
def test_begin_commit_rollback_ops(core):
    db, server = _server(core)
    with server:
        with BeliefClient(*server.address) as client:
            client.login("Carol", create=True)
            info = client.begin()
            assert info["transaction"] == {"statements": 0, "rows": 0}
            payload = client.execute_prepared(INSERT, ROW)
            assert payload["rowcount"] == -1
            assert payload["status"] == "INSERT STAGED"
            assert client.whoami()["transaction"]["statements"] == 1
            result = client.commit()
            assert result["kind"] == "commit"
            assert result["rowcount"] == 1
            assert client.whoami()["transaction"] is None
            client.begin()
            client.execute_prepared(INSERT, ["s2"] + ROW[1:])
            assert client.rollback() == {"discarded": 1}
    assert db.annotation_count() == 1


@CORES
def test_execute_batch_stages_inside_transaction(core):
    db, server = _server(core)
    with server:
        with BeliefClient(*server.address) as client:
            client.login("Carol", create=True)
            client.begin()
            payload = client.execute_batch(
                INSERT, [[f"s{i}"] + ROW[1:] for i in range(600)]
            )
            # Chunked across several frames, still one staged unit.
            assert payload["rowcount"] == -1
            assert payload["status"] == "INSERT STAGED"
            assert db.annotation_count() == 0
            assert client.commit()["rowcount"] == 600
    assert db.annotation_count() == 600


@CORES
def test_transactions_are_per_session(core):
    db, server = _server(core)
    with server:
        with BeliefClient(*server.address) as alice, \
                BeliefClient(*server.address) as bob:
            alice.login("Alice", create=True)
            bob.login("Bob", create=True)
            alice.begin()
            alice.execute_prepared(INSERT, ["a1"] + ROW[1:])
            # Bob is unaffected: his writes autocommit while Alice stages.
            bob.execute_prepared(INSERT, ["b1"] + ROW[1:])
            assert db.annotation_count() == 1
            with pytest.raises(TransactionError, match="no transaction"):
                bob.commit()
            alice.commit()
            assert db.annotation_count() == 2


@CORES
def test_programmatic_ops_rejected_in_transaction(core):
    _, server = _server(core)
    with server:
        with BeliefClient(*server.address) as client:
            client.login("Carol", create=True)
            client.begin()
            # A lifecycle write compares against the live registry.
            with pytest.raises(TransactionError, match="not transactional"):
                client.lifecycle_propose("Sightings", ROW)
            # Reads keep working.
            assert client.execute_prepared(
                "select S.sid from Sightings as S"
            )["rows"] == []
            client.rollback()


@CORES
def test_tuple_sql_forms_stage_in_a_transaction(core):
    """A negative insert and a delete by full tuple are DML like any
    other: staged, invisible to the store until commit."""
    db, server = _server(core)
    other = ["s2"] + ROW[1:]
    with server:
        with BeliefClient(*server.address) as client:
            client.login("Carol", create=True)
            client.begin()
            for sql, row in (
                (INSERT, ROW),
                ("insert into not Sightings values (?,?,?,?,?)", other),
                ("delete from Sightings values (?,?,?,?,?)", ROW),
            ):
                payload = client.execute_prepared(sql, row)
                assert payload["rowcount"] == -1
                assert payload["status"].endswith("STAGED")
            assert db.annotation_count() == 0
            assert client.commit()["rowcount"] == 3
    assert not db.believes(["Carol"], "Sightings", ROW)
    assert db.believes(["Carol"], "Sightings", other, "-")
    assert not db.believes(["Carol"], "Sightings", other)


@CORES
def test_commit_without_begin_is_a_loud_error(core):
    _, server = _server(core)
    with server:
        with BeliefClient(*server.address) as client:
            with pytest.raises(TransactionError, match="nothing to commit"):
                client.commit()
            with pytest.raises(TransactionError, match="nothing to roll"):
                client.rollback()


@CORES
def test_wal_frames_committed_transaction_and_recovers(core, tmp_path):
    db = durable_db(sightings_schema(), tmp_path / "data")
    with core(db) as server:
        with BeliefClient(*server.address) as client:
            client.login("Carol", create=True)
            client.execute_prepared(INSERT, ROW)
            client.begin()
            client.execute_prepared(INSERT, ["s2"] + ROW[1:])
            client.execute_batch(INSERT, [["s3"] + ROW[1:], ["s4"] + ROW[1:]])
            assert client.commit()["rowcount"] == 3
            client.begin()
            client.execute_prepared(INSERT, ["never"] + ROW[1:])
            client.rollback()  # rolled back: must NOT appear in the log
    log = wal_records(db)
    ops = [r["op"] for r in log]
    # One framed group holding the transaction's three statements, after
    # the autocommit insert; nothing of the rolled-back one.
    assert ops == ["add_user", "execute", "txn_begin", "execute", "execute",
                   "execute", "txn_commit"]
    assert all("never" not in str(r) for r in log)
    with recovered_from_wal(db) as recovered:
        assert recovered.annotation_count() == 4


@CORES
def test_session_death_discards_open_transaction(core):
    db, server = _server(core)
    with server:
        with BeliefClient(*server.address) as client:
            client.login("Carol", create=True)
            client.begin()
            client.execute_prepared(INSERT, ROW)
        # Connection closed with the transaction open: nothing applied.
        with BeliefClient(*server.address) as fresh:
            assert fresh.execute_prepared(
                "select S.sid from Sightings as S"
            )["rows"] == []
    assert db.annotation_count() == 0
    # The abandoned transaction reached a terminal state: the ledger
    # reconciles (begun == committed + rolled_back + aborted).
    stats = db.snapshot_stats()["transactions"]
    assert stats["begun"] == stats["committed"] + stats["rolled_back"] \
        + stats["aborted"] == 1


@CORES
def test_double_begin_neither_leaks_nor_skews_the_ledger(core):
    db, server = _server(core)
    with server:
        with BeliefClient(*server.address) as client:
            client.begin()
            with pytest.raises(TransactionError, match="already open"):
                client.begin()
            # The rejected begin created nothing: the first transaction
            # still commits, and the counters stay reconciled.
            client.execute_prepared(INSERT, ROW)
            client.commit()
    stats = db.snapshot_stats()["transactions"]
    assert stats["begun"] == 1
    assert stats["committed"] == 1


# ------------------------------------------------------------ reconnect rules


def test_raw_client_never_reconnects_commit_onto_fresh_session():
    """commit/rollback name per-session state: no bounded reconnect."""
    db = BeliefDBMS(sightings_schema(), strict=False)
    server = BeliefServer(db).start()
    host, port = server.address
    client = BeliefClient(host, port, auto_reconnect=True)
    try:
        client.login("Carol", create=True)
        client.begin()
        client.execute_prepared(INSERT, ROW)
        server.stop()
        with pytest.raises(ConnectionLost):
            client.commit()
            client.commit()  # first call may see the close as clean EOF
        server = BeliefServer(db, port=port).start()
        # Even with the server back, commit must NOT quietly reconnect —
        # the transaction died with the session.
        with pytest.raises(ConnectionLost, match="open transaction"):
            client.commit()
        # A state-free op reconnects fine; the staged insert is gone.
        assert client.ping()
        assert db.annotation_count() == 0
    finally:
        client.close()
        server.stop()


def test_remote_connection_aborts_open_transaction_on_reconnect():
    """The RemoteConnection hook restores login/path, then aborts loudly."""
    db = BeliefDBMS(sightings_schema(), strict=False)
    server = BeliefServer(db).start()
    host, port = server.address
    conn = connect(f"{host}:{port}", user="Carol", reconnect=True)
    try:
        conn.begin()
        conn.execute(INSERT, tuple(ROW))
        server.stop()
        server = BeliefServer(db, port=port).start()
        # Flush the stale socket (outcome-unknown failure), then the next
        # call reconnects — and must abort the transaction, not resume it.
        for _ in range(2):
            try:
                conn.execute("select S.sid from Sightings as S")
            except (ConnectionLost, TransactionAbortedError) as exc:
                last = exc
        assert isinstance(last, TransactionAbortedError)
        assert not conn.in_transaction
        assert db.annotation_count() == 0  # never silently retried
        # Session restored: usable immediately, with the same login.
        assert conn.user == "Carol"
        conn.execute(INSERT, tuple(ROW))
        assert db.annotation_count() == 1
    finally:
        conn.close()
        server.stop()


@CORES
def test_stats_expose_transaction_counters(core):
    _, server = _server(core)
    with server:
        with BeliefClient(*server.address) as client:
            client.login("Carol", create=True)
            client.begin()
            client.execute_prepared(INSERT, ROW)
            client.commit()
            stats = client.stats()
    assert stats["transactions"]["committed"] == 1
    assert stats["transactions"]["begun"] == 1
