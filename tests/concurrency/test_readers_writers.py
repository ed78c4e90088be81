"""Concurrent readers under sustained committed writes — all four surfaces.

The MVCC acceptance contract (``docs/concurrency.md``): a scan serves
entirely from the version pinned when it started, so a reader racing a
writer sees a *single-version-consistent* result — never a torn one — on
the embedded, threaded-server, asyncio-server, and sharded paths; and
reads never acquire the server lock at all.

The wire-level probe is **pair atomicity**: the writer commits rows in
pairs through ``execute_batch`` (one epoch bump per batch), so any scan
that ever returns half a pair has read across versions.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import connect
from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.server import AsyncBeliefServer, BeliefClient, BeliefServer
from repro.server.protocol import OPS

ROW_TAIL = ["Carol", "bald eagle", "6-14-08", "Lake Forest"]
INSERT = "insert into Sightings values (?,?,?,?,?)"
SELECT = "select S.sid from BELIEF 'Carol' Sightings as S"
BCQ = "q(s) :- ['Carol'] Sightings+(s, u, sp, d, l)"

SERVER_CORES = ("threaded", "async")


def _make_server(core: str, db: BeliefDBMS):
    return AsyncBeliefServer(db) if core == "async" else BeliefServer(db)


def _fresh_db(**kwargs) -> BeliefDBMS:
    db = BeliefDBMS(sightings_schema(), strict=False, **kwargs)
    db.add_user("Carol")
    return db


def _select(client: BeliefClient) -> list[list]:
    return client.drain(client.execute_prepared(SELECT))


def _assert_pairs_complete(sids: set[str], n_pairs: int) -> None:
    """Every committed pair is all-or-nothing in a single scan."""
    for i in range(n_pairs):
        a, b = f"a{i}" in sids, f"b{i}" in sids
        assert a == b, f"torn pair {i}: a={a} b={b}"


# ------------------------------------------------------- embedded pinning


def test_embedded_scan_pinned_at_version_ignores_1000_writes():
    """A reader pinned at version V sees none of 1000 writes committed
    after the pin — and the live store sees all of them."""
    db = _fresh_db()
    db.insert(["Carol"], "Sightings", ("seed", *ROW_TAIL))
    pinned = db.pin_version()
    try:
        for i in range(1000):
            db.insert(["Carol"], "Sightings", (f"w{i}", *ROW_TAIL))
        old = {row[0] for row in db.query(BCQ, version=pinned)}
        assert old == {"seed"}
        live = {row[0] for row in db.query(BCQ)}
        assert len(live) == 1001
    finally:
        db.release_version(pinned)


def test_embedded_concurrent_scans_never_tear_pairs():
    """Free-running reader threads against a writer committing pairs via
    ``execute_batch`` (one version bump per batch) never see half a pair."""
    db = _fresh_db()
    conn = connect(db)
    prepared = db.prepare(INSERT)
    n_pairs, failures, done = 150, [], threading.Event()

    def read_loop() -> None:
        reader = connect(db)
        try:
            while not done.is_set():
                sids = {r[0] for r in reader.execute(SELECT).rows}
                _assert_pairs_complete(sids, n_pairs)
        except AssertionError as exc:  # surface in the main thread
            failures.append(exc)
            done.set()

    threads = [threading.Thread(target=read_loop) for _ in range(3)]
    for t in threads:
        t.start()
    try:
        for i in range(n_pairs):
            db.execute_batch(prepared, [
                (f"a{i}", *ROW_TAIL), (f"b{i}", *ROW_TAIL),
            ])
    finally:
        done.set()
        for t in threads:
            t.join()
    assert not failures, failures[0]
    assert len(conn.execute(SELECT).rows) == 2 * n_pairs


# ----------------------------------------------- wire surfaces: both cores


@pytest.mark.parametrize("core", SERVER_CORES)
def test_wire_scans_never_tear_pairs(core):
    db = _fresh_db()
    n_pairs, failures, done = 80, [], threading.Event()
    with _make_server(core, db) as server:

        def read_loop() -> None:
            try:
                with BeliefClient(*server.address) as reader:
                    while not done.is_set():
                        sids = {row[0] for row in _select(reader)}
                        _assert_pairs_complete(sids, n_pairs)
            except AssertionError as exc:
                failures.append(exc)
                done.set()

        threads = [threading.Thread(target=read_loop) for _ in range(2)]
        for t in threads:
            t.start()
        try:
            with BeliefClient(*server.address) as writer:
                writer.login("Carol")
                for i in range(n_pairs):
                    writer.execute_batch(INSERT, [
                        [f"a{i}", *ROW_TAIL], [f"b{i}", *ROW_TAIL],
                    ])
        finally:
            done.set()
            for t in threads:
                t.join()
        assert not failures, failures[0]
        with BeliefClient(*server.address) as check:
            assert len(_select(check)) == 2 * n_pairs


def test_paged_result_is_frozen_at_execute_time():
    """The Cursor paging path: rows are materialized under the pinned
    version at execute time, so pages fetched *after* later commits still
    show the execute-time snapshot (and hold no pin meanwhile)."""
    db = _fresh_db()
    for i in range(40):
        db.insert(["Carol"], "Sightings", (f"pre{i}", *ROW_TAIL))
    with BeliefServer(db) as server:
        with BeliefClient(*server.address) as client:
            payload = client.execute_prepared(SELECT, max_rows=5)
            assert payload["has_more"]
            # Commit writes between pages; no pin is held while paging.
            for i in range(10):
                db.insert(["Carol"], "Sightings", (f"mid{i}", *ROW_TAIL))
            assert db.versions.snapshot_stats()["active_pins"] == 0
            rows = client.drain(payload)
            sids = {row[0] for row in rows}
            assert len(rows) == 40 and not any(
                s.startswith("mid") for s in sids
            )


# --------------------------------------------------------------- sharded


def test_sharded_scans_never_tear_pairs():
    from repro.shard import ShardCluster

    n_pairs, failures, done = 40, [], threading.Event()
    with ShardCluster(n_shards=2) as cluster:
        with BeliefClient(*cluster.address) as setup:
            setup.call("add_user", name="Carol")

        def read_loop() -> None:
            try:
                with BeliefClient(*cluster.address) as reader:
                    while not done.is_set():
                        sids = {row[0] for row in _select(reader)}
                        _assert_pairs_complete(sids, n_pairs)
            except AssertionError as exc:
                failures.append(exc)
                done.set()

        t = threading.Thread(target=read_loop)
        t.start()
        try:
            with BeliefClient(*cluster.address) as writer:
                writer.login("Carol")
                # Both rows of a pair route by the same belief-path head
                # ("Carol"), so each batch lands on one worker — one epoch
                # bump — and the fan-out read gets a consistent cut.
                for i in range(n_pairs):
                    writer.execute_batch(INSERT, [
                        [f"a{i}", *ROW_TAIL], [f"b{i}", *ROW_TAIL],
                    ])
        finally:
            done.set()
            t.join()
        assert not failures, failures[0]
        with BeliefClient(*cluster.address) as check:
            assert len(_select(check)) == 2 * n_pairs


# -------------------------------------------- reads never touch the lock


#: One wire request per op whose op-table row says it takes no lock
#: (``none`` / ``pinned``), keyed by op: a new lock-free row needs a case.
LOCK_FREE_CALLS = {
    "ping": {},
    "metrics": {},
    "execute_prepared": {"sql": SELECT, "params": []},
    "believes": {"relation": "Sightings", "values": ["s1", *ROW_TAIL],
                 "path": ["Carol"], "sign": "+"},
    "world": {"path": ["Carol"]},
    "worlds": {},
    "stats": {},
    "audit": {"kind": "log"},
}
LOCK_FREE_OPS = sorted(
    name for name, spec in OPS.items() if spec.lock in ("none", "pinned")
)


def test_every_lock_free_row_has_a_case():
    assert sorted(LOCK_FREE_CALLS) == LOCK_FREE_OPS


@pytest.mark.parametrize("op", LOCK_FREE_OPS)
@pytest.mark.parametrize("backend", ("engine", "sqlite"))
def test_pinned_read_ops_never_acquire_the_server_lock(backend, op):
    """Every op whose op-table row is ``none`` or ``pinned`` dispatches
    without touching the readers-writer lock — on the pure-python and
    sqlite backends alike (per-version mirrors removed the old sqlite
    write-lock promotion)."""
    db = _fresh_db(backend=backend)
    db.insert(["Carol"], "Sightings", ("s1", *ROW_TAIL))
    with BeliefServer(db) as server:
        counts = {"read": 0, "write": 0}
        orig_read, orig_write = server.lock.read, server.lock.write

        def counting_read():
            counts["read"] += 1
            return orig_read()

        def counting_write():
            counts["write"] += 1
            return orig_write()

        server.lock.read = counting_read  # type: ignore[method-assign]
        server.lock.write = counting_write  # type: ignore[method-assign]
        with BeliefClient(*server.address) as client:
            result = client.call(op, **LOCK_FREE_CALLS[op])
        assert counts == {"read": 0, "write": 0}
        if op == "execute_prepared":
            assert result["rows"] == [["s1"]]  # and it did read the store


def test_reads_complete_while_a_writer_holds_the_lock():
    """A held write lock blocks writers, not MVCC readers."""
    db = _fresh_db()
    db.insert(["Carol"], "Sightings", ("s1", *ROW_TAIL))
    with BeliefServer(db) as server:
        server.lock.acquire_write()
        try:
            with BeliefClient(*server.address) as client:
                assert _select(client) == [["s1"]]
                assert client.stats()["mvcc"]["active_pins"] == 0
        finally:
            server.lock.release_write()


# ------------------------------------- write-buffer read-through property


_OPS = st.lists(
    st.tuples(st.sampled_from(("insert", "delete")),
              st.sampled_from(("s0", "s1", "s2", "s3"))),
    min_size=1, max_size=8,
)


@settings(max_examples=40, deadline=None)
@given(ops=_OPS)
def test_in_txn_reads_equal_committed_replay(ops):
    """Read-your-own-writes is *exactly* commit semantics: an in-transaction
    select equals querying a scratch database that committed the same
    statement sequence."""
    delete_sql = "delete from Sightings where sid = ?"

    def run(conn, transactional: bool):
        if transactional:
            conn.begin()
        for op, sid in ops:
            if op == "insert":
                conn.execute(INSERT, (sid, *ROW_TAIL))
            else:
                conn.execute(delete_sql, (sid,))
        return sorted(conn.execute(SELECT).rows)

    staged_conn = connect(_fresh_db())
    scratch_conn = connect(_fresh_db())
    staged = run(staged_conn, transactional=True)
    committed = run(scratch_conn, transactional=False)
    assert staged == committed
    # The transaction never touched the shared store.
    assert connect(staged_conn.db).execute(SELECT).rows == []


# ------------------------------------------------- staged Result contract


def test_staged_result_status_and_rowcount_are_pinned():
    """The documented staging contract: every DML kind staged in a
    transaction answers ``<KIND> STAGED`` with ``rowcount == -1`` and no
    rows — even though the session's own selects already see the rows."""
    conn = connect(_fresh_db())
    conn.begin()
    cases = [
        (INSERT, ("s1", *ROW_TAIL), "INSERT STAGED"),
        ("delete from Sightings where sid = ?", ("s1",), "DELETE STAGED"),
    ]
    for sql, params, expected in cases:
        result = conn.execute(sql, params)
        assert result.status == expected
        assert result.rowcount == -1
        assert result.rows == []
    conn.rollback()
