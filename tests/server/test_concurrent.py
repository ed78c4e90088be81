"""End-to-end concurrency: many users curate one database at once.

The linearizability argument: every write runs under the server's exclusive
writer lock and is appended to the op log *while holding that lock*, so the
log order is the serialization order. Replaying the log serially into a
fresh BDMS must reproduce both the per-op outcomes and the final database.
"""

from __future__ import annotations

import threading

import pytest

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.server import BeliefClient, BeliefServer
from repro.server.server import replay_oplog

N_CLIENTS = 10
OPS_PER_CLIENT = 15

SPECIES = ["bald eagle", "fish eagle", "crow", "raven", "osprey"]


def _explicit_state(db: BeliefDBMS) -> list[str]:
    return sorted(str(s) for s in db.store.explicit_statements())


def _worker(address, name: str, index: int, barrier: threading.Barrier,
            errors: list) -> None:
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
                    client.dispute(
                        "Sightings",
                        [sid, name, other, "6-14-08", "Lake Forest"],
                    )
                elif k % 7 == 5:
                    client.drain(client.execute_prepared(
                        f"select S.sid from BELIEF '{name}' Sightings as S"
                    ))
                    client.insert("Sightings", values)
                else:
                    client.insert("Sightings", values)
    except Exception as exc:  # noqa: BLE001 — surface to the main thread
        errors.append((name, exc))


@pytest.fixture
def concurrent_run():
    db = BeliefDBMS(sightings_schema(), strict=False)
    with BeliefServer(db, record_ops=True) as server:
        barrier = threading.Barrier(N_CLIENTS, timeout=10)
        errors: list = []
        threads = [
            threading.Thread(
                target=_worker,
                args=(server.address, f"user{i}", i, barrier, errors),
            )
            for i in range(N_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "workers deadlocked"
        assert not errors, errors
        yield db, server


def test_concurrent_clients_all_complete(concurrent_run):
    db, server = concurrent_run
    assert len(db.users()) == N_CLIENTS
    stats = server.stats
    assert stats["connections_total"] == N_CLIENTS
    assert stats["protocol_errors"] == 0


def test_concurrent_writes_recorded_in_serial_order(concurrent_run):
    _, server = concurrent_run
    log = server.oplog()
    assert [e["seq"] for e in log] == list(range(1, len(log) + 1))
    writes = [e for e in log if e["op"] in ("insert", "delete")]
    assert len(writes) == N_CLIENTS * OPS_PER_CLIENT


def test_linearizable_final_state_equals_serial_replay(concurrent_run):
    db, server = concurrent_run
    replay = BeliefDBMS(sightings_schema(), strict=False)
    replay_oplog(replay, server.oplog())  # raises if any outcome diverges
    assert _explicit_state(replay) == _explicit_state(db)
    assert replay.users() == db.users()
    assert replay.annotation_count() == db.annotation_count()
    assert replay.size() == db.size()
    # Entailed worlds agree too (defaults are deterministic given statements).
    for path in sorted(db.store.states(), key=lambda p: (len(p), repr(p))):
        assert replay.store.entailed_world(path) == db.store.entailed_world(path)


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
                        client.insert(
                            "Sightings",
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
