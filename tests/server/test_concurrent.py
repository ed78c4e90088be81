"""End-to-end concurrency: many users curate one database at once.

The linearizability argument: every write runs under the server's exclusive
writer lock and is appended to the WAL *while holding that lock*, so the
log order is the serialization order. Recovering a fresh BDMS from that WAL
— strict replay: a record that fails to re-apply raises — must reproduce
the final database (``tests/wal_oracle.py``).
"""

from __future__ import annotations

import threading

import pytest

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import experiment_schema, sightings_schema
from repro.server import AsyncBeliefServer, BeliefClient, BeliefServer
from repro.workload.generator import concurrent_trace
from tests.wal_oracle import durable_db, recovered_from_wal, wal_records
from tests.wire_sql import tuple_write

N_CLIENTS = 10
OPS_PER_CLIENT = 15

SPECIES = ["bald eagle", "fish eagle", "crow", "raven", "osprey"]
INSERT_SQL = "insert into Sightings values (?,?,?,?,?)"
DISPUTE_SQL = "insert into BELIEF ? not Sightings values (?,?,?,?,?)"


def _worker(address, name: str, index: int, barrier: threading.Barrier,
            errors: list, accepted: list) -> None:
    """Drive one client; count its accepted tuple writes into ``accepted``
    (a rejected op must leave no WAL record)."""
    try:
        with BeliefClient(*address) as client:
            client.login(name, create=True)
            barrier.wait(timeout=10)
            for k in range(OPS_PER_CLIENT):
                sid = f"s{(index * OPS_PER_CLIENT + k) % 40}"
                species = SPECIES[(index + k) % len(SPECIES)]
                values = [sid, name, species, "6-14-08", "Lake Forest"]
                if k % 3 == 2:
                    # Dispute a tuple someone (maybe) believes.
                    other = SPECIES[(index + k + 1) % len(SPECIES)]
                    ok = client.execute_prepared(
                        "insert into not Sightings values (?,?,?,?,?)",
                        [sid, name, other, "6-14-08", "Lake Forest"],
                    )["rowcount"]
                else:
                    if k % 7 == 5:
                        client.drain(client.execute_prepared(
                            f"select S.sid from BELIEF '{name}' "
                            "Sightings as S"
                        ))
                    ok = client.execute_prepared(INSERT_SQL, values)["rowcount"]
                accepted.append(bool(ok))
    except Exception as exc:  # noqa: BLE001 — surface to the main thread
        errors.append((name, exc))


@pytest.fixture
def concurrent_run(tmp_path):
    db = durable_db(sightings_schema(), tmp_path / "data")
    accepted: list = []
    with BeliefServer(db) as server:
        barrier = threading.Barrier(N_CLIENTS, timeout=10)
        errors: list = []
        threads = [
            threading.Thread(
                target=_worker,
                args=(server.address, f"user{i}", i, barrier, errors,
                      accepted),
            )
            for i in range(N_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "workers deadlocked"
        assert not errors, errors
        yield db, server, accepted
    db.close()


def test_concurrent_clients_all_complete(concurrent_run):
    db, server, _ = concurrent_run
    assert len(db.users()) == N_CLIENTS
    stats = server.stats
    assert stats["connections_total"] == N_CLIENTS
    assert stats["protocol_errors"] == 0


def test_concurrent_writes_logged_in_serial_order(concurrent_run):
    db, _, accepted = concurrent_run
    log = wal_records(db)
    assert [r["seq"] for r in log] == list(range(1, len(log) + 1))
    assert sum(r["op"] == "add_user" for r in log) == N_CLIENTS
    # Every accepted write is one record; a rejected one (Alg. 4 said no)
    # leaves no WAL record and no state.
    assert len(accepted) == N_CLIENTS * OPS_PER_CLIENT
    assert sum(r["op"] == "execute" for r in log) == sum(accepted)
    assert db.annotation_count() == sum(accepted)


def test_linearizable_final_state_equals_wal_recovery(concurrent_run):
    db, _, _ = concurrent_run
    # Raises if any logged op fails to re-apply; asserts explicit
    # statements, users and entailed worlds all match the live database.
    with recovered_from_wal(db) as recovered:
        report = recovered.durability.last_recovery
        assert report.wal_records == len(wal_records(recovered))
        assert report.torn_tail_bytes == 0


def test_concurrent_readers_see_consistent_snapshots():
    """Readers running against a write-heavy server never see errors."""
    db = BeliefDBMS(sightings_schema(), strict=False)
    with BeliefServer(db) as server:
        stop = threading.Event()
        errors: list = []

        def write_loop():
            try:
                with BeliefClient(*server.address) as client:
                    client.login("writer", create=True)
                    for k in range(60):
                        client.execute_prepared(
                            INSERT_SQL,
                            [f"w{k}", "writer", "crow", "6-14-08", "Union Bay"],
                        )
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                stop.set()

        def read_loop():
            try:
                with BeliefClient(*server.address) as client:
                    while not stop.is_set():
                        worlds = client.worlds()
                        stats = client.stats()
                        assert stats["annotations"] >= 0
                        assert isinstance(worlds, list)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        writer = threading.Thread(target=write_loop)
        readers = [threading.Thread(target=read_loop) for _ in range(4)]
        writer.start()
        for r in readers:
            r.start()
        writer.join(timeout=60)
        for r in readers:
            r.join(timeout=60)
        assert not errors, errors
        assert db.annotation_count() == 60


def _drive(discipline: str, client: BeliefClient, user: str, ops) -> None:
    """One ``concurrent_trace`` stream, sent the way ``discipline`` says.

    A stream's insert keys (its own) and dispute keys (a shared pool) are
    disjoint, so grouping writes by kind changes no outcome.
    """
    writes = [op for op in ops if op.kind != "select"]
    if discipline == "pipelined":
        replies = [
            client.submit("execute_prepared", sql=sql, params=params)
            for sql, params in (
                tuple_write("insert", op.relation, op.values,
                            sign="+" if op.kind == "insert" else "-")
                for op in writes
            )
        ]
        for reply in replies:
            reply.result()
    elif discipline == "batched":
        inserts = [list(op.values) for op in writes if op.kind == "insert"]
        disputes = [[user, *op.values] for op in writes if op.kind == "dispute"]
        if inserts:
            client.execute_batch(INSERT_SQL, inserts)
        if disputes:
            client.execute_batch(DISPUTE_SQL, disputes)
    else:  # txn: every write staged, one commit
        client.begin()
        for op in writes:
            if op.kind == "insert":
                client.execute_prepared(INSERT_SQL, list(op.values))
            else:
                client.execute_prepared(DISPUTE_SQL, [user, *op.values])
        client.commit()
    for op in ops:
        if op.kind == "select":
            client.drain(client.execute_prepared(op.sql))


@pytest.mark.parametrize("discipline", ["pipelined", "batched", "txn"])
def test_every_request_discipline_equals_wal_recovery(discipline, tmp_path):
    """Concurrent clients on the asyncio core, each pipelining, batching or
    committing transactions: no client errs, none hangs, and the live
    database equals the one recovered from its WAL."""
    streams = concurrent_trace(8, 24, seed=11)
    db = durable_db(experiment_schema(), tmp_path / "data")
    errors: list = []
    with AsyncBeliefServer(db) as server:

        def worker(user: str, ops) -> None:
            try:
                with BeliefClient(*server.address) as client:
                    client.login(user, create=True)
                    _drive(discipline, client, user, ops)
            except Exception as exc:  # noqa: BLE001 — surface to the test
                errors.append((user, exc))

        threads = [
            threading.Thread(target=worker, args=item)
            for item in streams.items()
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "clients deadlocked"
    assert not errors, errors
    assert db.annotation_count() > 0
    with recovered_from_wal(db):
        pass
