"""The shard router: protocol parity, routing, fan-out, and typed limits.

The contract under test is the tentpole claim: every existing client —
raw :class:`BeliefClient`, ``connect()``/Cursor, transactions — works
unchanged against ``repro serve --shards N`` for single-shard operations,
while cross-shard reads merge transparently and cross-shard transactions
fail typed (``CROSS_SHARD_TXN``) instead of silently losing atomicity.
"""

from __future__ import annotations

import contextlib
import threading

import pytest

from repro.api import connect
from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.errors import (
    BeliefDBError,
    CrossShardTransactionError,
    FrameTooLargeError,
    ServerOverloadedError,
    TransactionError,
    UnknownUserError,
)
from repro.server import AsyncBeliefServer, BeliefServer
from repro.server.client import BeliefClient
from repro.shard import CONTENT_KEY, HashRing, ShardCluster, WorkerSpec
from repro.workload.generator import concurrent_trace

INSERT = "insert into Sightings values (?,?,?,?,?)"
ROW = ["s1", "u", "bald eagle", "6-14-08", "Lake Forest"]


def _pick_per_shard_names(n_shards: int) -> list[str]:
    """One user name per shard, chosen by the same ring the router uses."""
    ring = HashRing(n_shards)
    chosen: dict[int, str] = {}
    i = 0
    while len(chosen) < n_shards:
        name = f"user-{i}"
        chosen.setdefault(ring.shard_for(name), name)
        i += 1
    return [chosen[s] for s in range(n_shards)]


@pytest.fixture(scope="module")
def cluster():
    with ShardCluster(n_shards=2) as c:
        yield c


@pytest.fixture
def client(cluster):
    with BeliefClient(*cluster.address) as c:
        yield c


def _worker_client(cluster, shard):
    address, _ = cluster.coordinator.directory.lookup(shard)
    return BeliefClient(*address)


class TestUsersAreGlobal:
    def test_created_user_exists_on_every_shard(self, cluster, client):
        uid = client.call("add_user", name="Omni")
        for shard in range(cluster.n_shards):
            with _worker_client(cluster, shard) as direct:
                assert [uid, "Omni"] in direct.call("users")

    def test_uids_identical_across_shards(self, cluster, client):
        client.call("add_user", name="SameUid")
        tables = []
        for shard in range(cluster.n_shards):
            with _worker_client(cluster, shard) as direct:
                tables.append({
                    name: uid for uid, name in direct.call("users")
                })
        assert tables[0] == tables[1]

    def test_login_create_false_rejects_unknown(self, client):
        with pytest.raises(UnknownUserError, match="unknown user reference"):
            client.call("login", user="Nobody9000", create=False)

    def test_users_lists_the_union(self, client):
        client.call("add_user", name="UnionA")
        listing = client.call("users")
        names = {name for _, name in listing}
        assert "UnionA" in names


class TestSingleShardRouting:
    def test_insert_lands_on_the_ring_shard_only(self, cluster, client):
        alice, bob = _pick_per_shard_names(cluster.n_shards)[:2]
        client.login(alice, create=True)
        client.call("add_user", name=bob)
        row = ["route-1", "u", "heron", "d", "l"]
        assert client.execute_prepared(INSERT, row)["rowcount"] == 1
        home = cluster.router.ring.shard_for(alice)
        for shard in range(cluster.n_shards):
            with _worker_client(cluster, shard) as direct:
                held = direct.call(
                    "believes", relation="Sightings", values=row,
                    path=[alice],
                )
                assert held is (shard == home)
        # And the router agrees end to end.
        assert client.call(
            "believes", relation="Sightings", values=row
        ) is True
        client.execute_prepared(
            "delete from Sightings values (?,?,?,?,?)", row
        )
        assert client.call(
            "believes", relation="Sightings", values=row
        ) is False

    def test_world_reads_route_by_path(self, cluster, client):
        names = _pick_per_shard_names(cluster.n_shards)
        for name in names:
            client.login(name, create=True)
            client.execute_prepared(INSERT, [f"w-{name}", "u", "owl", "d", "l"])
        for name in names:
            world = client.call("world", path=[name])
            assert any(f"w-{name}" in t for t in world["positives"])

    def test_prepared_dml_with_placeholder_belief_head(self, client):
        client.login("Placer", create=True)
        client.call("add_user", name="PlacerTarget")
        payload = client.execute_prepared(
            "insert into BELIEF ? Sightings values (?,?,?,?,?)",
            ["PlacerTarget", "ph-1", "u", "jay", "d", "l"],
        )
        assert payload["rowcount"] == 1
        assert client.call(
            "believes", relation="Sightings",
            values=["ph-1", "u", "jay", "d", "l"], path=["PlacerTarget"],
        ) is True


BELIEVER = "Believer"
B_CROW = ["bel-1", "u", "crow", "d", "l"]
B_RAVEN = ["bel-1", "u", "raven", "d", "l"]   # same key as B_CROW
B_EAGLE = ["bel-2", "u", "eagle", "d", "l"]   # a stated negative
B_OWL = ["bel-3", "u", "owl", "d", "l"]       # never inserted
#: (values, sign, answer) at ``[BELIEVER]`` — every shape must give these.
BELIEVES_PROBES = [
    (B_CROW, "+", True), (B_CROW, "-", False),
    (B_RAVEN, "+", False), (B_RAVEN, "-", True),   # unstated negative
    (B_EAGLE, "+", False), (B_EAGLE, "-", True),   # stated negative
    (B_OWL, "+", False), (B_OWL, "-", False),      # not believed either way
]
#: (path, values) -> the typed error's class name.
BELIEVES_ERRORS = [
    (["NoSuchBeliever"], B_CROW, "UnknownUserError"),
    ([BELIEVER, BELIEVER], B_CROW, "InvalidBeliefPath"),
    ([BELIEVER], B_CROW[:3], "SchemaError"),
]


@contextlib.contextmanager
def _believes_on(shape, request):
    """``believes(path, values, sign)`` on one deployment shape, over the
    fixture: ``B_CROW`` believed and ``B_EAGLE`` disbelieved by BELIEVER."""
    if shape == "embedded":
        db = BeliefDBMS(sightings_schema())
        db.add_user(BELIEVER)
        db.insert([BELIEVER], "Sightings", B_CROW)
        db.insert([BELIEVER], "Sightings", B_EAGLE, sign="-")
        yield lambda path, values, sign: db.believes(
            path, "Sightings", values, sign
        )
        return
    with contextlib.ExitStack() as stack:
        if shape == "router":
            address = request.getfixturevalue("cluster").address
        else:
            core = BeliefServer if shape == "threaded" else AsyncBeliefServer
            address = stack.enter_context(
                core(BeliefDBMS(sightings_schema()))
            ).address
        client = stack.enter_context(BeliefClient(*address))
        client.add_user(BELIEVER)
        client.execute_prepared(
            "insert into BELIEF ? Sightings values (?,?,?,?,?)",
            [BELIEVER, *B_CROW],
        )
        client.execute_prepared(
            "insert into BELIEF ? not Sightings values (?,?,?,?,?)",
            [BELIEVER, *B_EAGLE],
        )
        yield lambda path, values, sign: client.believes(
            "Sightings", values, path=path, sign=sign
        )


@pytest.mark.parametrize("shape", ["embedded", "threaded", "async", "router"])
def test_believes_answers_alike_on_every_shape(shape, request):
    """Same booleans, same typed errors, embedded to sharded. "Does not
    believe t" (``+`` False) and "believes not-t" (``-`` True) are distinct
    facts, and a tuple can be neither."""
    with _believes_on(shape, request) as believes:
        for values, sign, answer in BELIEVES_PROBES:
            assert believes([BELIEVER], values, sign) is answer, (values, sign)
        for path, values, error in BELIEVES_ERRORS:
            with pytest.raises(BeliefDBError) as raised:
                believes(path, values, "+")
            assert type(raised.value).__name__ == error, path


class TestFanOutReads:
    def test_select_merges_rows_from_all_shards(self, cluster, client):
        alice, bob = _pick_per_shard_names(cluster.n_shards)[:2]
        for name, sid in ((alice, "fan-a"), (bob, "fan-b")):
            client.login(name, create=True)
            client.execute_prepared(INSERT, [sid, "u", "kite", "d", "l"])
        rows_a = client.drain(client.execute_prepared(
            f"select S.sid from BELIEF '{alice}' Sightings as S"
        ))
        rows_b = client.drain(client.execute_prepared(
            f"select S.sid from BELIEF '{bob}' Sightings as S"
        ))
        assert ["fan-a"] in rows_a
        assert ["fan-b"] in rows_b

    def test_worlds_merges_without_duplicating_content(self, cluster, client):
        worlds = client.call("worlds")
        paths = [tuple(w["path"]) for w in worlds]
        assert paths.count(()) == 1  # one global ε, not one per shard
        assert paths == sorted(paths, key=lambda p: (len(p), repr(p)))

    def test_fanout_select_pages_through_router_cursor(self, client):
        client.login("Pager", create=True)
        for i in range(40):
            client.execute_prepared(
                INSERT, [f"page-{i:03d}", "u", "swift", "d", "l"]
            )
        payload = client.execute_prepared(
            "select S.sid from BELIEF 'Pager' Sightings as S",
            max_rows=7,
        )
        assert payload["rowcount"] == 40
        assert len(payload["rows"]) == 7
        assert payload["has_more"] is True and payload["cursor"] is not None
        rows = client.drain(payload)
        assert sorted(r[0] for r in rows) == [
            f"page-{i:03d}" for i in range(40)
        ]
        # The cursor auto-closed at exhaustion, same as a worker cursor.
        assert client.call("whoami")["cursors"] == 0

    def test_kripke_and_describe_join_shard_sections(self, cluster, client):
        for op in ("kripke", "describe"):
            text = client.call(op)
            for shard in range(cluster.n_shards):
                assert f"=== shard {shard} ===" in text


class TestTransactions:
    def test_single_shard_transaction_commits_atomically(self, client):
        client.login("TxnSolo", create=True)
        client.begin()
        for i in range(3):
            staged = client.execute_prepared(INSERT, [f"txn-{i}"] + ROW[1:])
            assert staged["status"] == "INSERT STAGED"
        assert client.whoami()["transaction"]["statements"] == 3
        result = client.commit()
        assert result["kind"] == "commit"
        assert result["rowcount"] == 3
        assert client.whoami()["transaction"] is None

    def test_cross_shard_statement_rejected_typed_txn_survives(
        self, cluster, client
    ):
        alice, bob = _pick_per_shard_names(cluster.n_shards)[:2]
        for name in (alice, bob):
            client.call("add_user", name=name)
        client.login(alice)
        client.begin()
        client.execute_prepared(INSERT, ["x-1"] + ROW[1:])  # pins to alice's
        with pytest.raises(CrossShardTransactionError) as excinfo:
            client.execute_prepared(
                "insert into BELIEF ? Sightings values (?,?,?,?,?)",
                [bob, "x-2", "u", "crow", "d", "l"],
            )
        assert excinfo.value.code == "CROSS_SHARD_TXN"
        # The rejected statement was NOT staged; the txn is intact.
        assert client.whoami()["transaction"]["statements"] == 1
        assert client.commit()["rowcount"] == 1

    def test_cross_shard_batch_rejected_before_staging(
        self, cluster, client
    ):
        alice, bob = _pick_per_shard_names(cluster.n_shards)[:2]
        client.login(alice, create=True)
        client.call("add_user", name=bob)
        client.begin()
        with pytest.raises(CrossShardTransactionError):
            client.execute_batch(
                "insert into BELIEF ? Sightings values (?,?,?,?,?)",
                [[alice, "b-1", "u", "wren", "d", "l"],
                 [bob, "b-2", "u", "wren", "d", "l"]],
            )
        assert client.whoami()["transaction"]["statements"] == 0
        assert client.rollback() == {"discarded": 0}

    def test_cross_shard_batch_outside_txn_splits_and_merges(
        self, cluster, client
    ):
        alice, bob = _pick_per_shard_names(cluster.n_shards)[:2]
        for name in (alice, bob):
            client.call("add_user", name=name)
        client.login(alice)
        payload = client.execute_batch(
            "insert into BELIEF ? Sightings values (?,?,?,?,?)",
            [[alice, "sb-1", "u", "tern", "d", "l"],
             [bob, "sb-2", "u", "tern", "d", "l"]],
        )
        assert payload["rowcount"] == 2
        for name, sid in ((alice, "sb-1"), (bob, "sb-2")):
            assert client.call(
                "believes", relation="Sightings",
                values=[sid, "u", "tern", "d", "l"], path=[name],
            ) is True

    def test_transaction_bookkeeping_matches_single_server(self, client):
        client.login("TxnEdge", create=True)
        with pytest.raises(TransactionError, match="nothing to commit"):
            client.commit()
        with pytest.raises(TransactionError, match="nothing to roll back"):
            client.rollback()
        client.begin()
        with pytest.raises(TransactionError, match="already open"):
            client.begin()
        with pytest.raises(TransactionError, match="not transactional"):
            client.lifecycle_propose("Sightings", ROW)
        # An empty transaction commits as a no-op with the worker envelope.
        result = client.commit()
        assert result["kind"] == "commit"
        assert result["rowcount"] == 0


class TestConnectSurface:
    def test_connection_and_cursor_work_unchanged(self, cluster):
        host, port = cluster.address
        with connect((host, port), user="DbApi") as conn:
            cur = conn.cursor()
            cur.executemany(
                INSERT,
                [(f"api-{i}", "u", "crow", "d", "l") for i in range(5)],
            )
            cur.execute(
                "select S.sid from BELIEF 'DbApi' Sightings as S "
                "where S.species = ?", ("crow",),
            )
            assert cur.rowcount == 5
            got = sorted(row[0] for row in cur.fetchall())
            assert got == [f"api-{i}" for i in range(5)]

    def test_connection_transaction_context(self, cluster):
        host, port = cluster.address
        with connect((host, port), user="DbApiTxn") as conn:
            with conn.transaction():
                conn.execute(INSERT, ("ctx-1", "u", "dove", "d", "l"))
                conn.execute(INSERT, ("ctx-2", "u", "dove", "d", "l"))
            cur = conn.cursor()
            cur.execute("select S.sid from BELIEF 'DbApiTxn' Sightings as S")
            assert cur.rowcount == 2


class TestObservability:
    def test_stats_merges_shards_and_reports_router(self, cluster, client):
        stats = client.stats()
        assert stats["shards_reached"] == cluster.n_shards
        assert set(stats["shards"]) == {
            str(s) for s in range(cluster.n_shards)
        }
        assert stats["router"]["ops_served"] >= 1
        # Counters are fleet totals, replicated tables are not summed.
        direct_users = []
        for shard in range(cluster.n_shards):
            with _worker_client(cluster, shard) as direct:
                direct_users.append(direct.stats()["users"])
        assert stats["users"] == max(direct_users)

    def test_metrics_samples_carry_shard_labels(self, cluster, client):
        payload = client.metrics()
        by_name = {f["name"]: f for f in payload["families"]}
        ops = by_name["beliefdb_ops_total"]
        assert "shard" in ops["label_names"]
        shards_seen = {s["labels"]["shard"] for s in ops["samples"]}
        assert "router" in shards_seen
        assert {str(s) for s in range(cluster.n_shards)} <= shards_seen
        # Router-only families: fan-out width and forward latency.
        assert "beliefdb_router_fanout_shards" in by_name
        assert "beliefdb_router_forward_seconds" in by_name
        # Coordinator health gauges ride the same registry.
        up = by_name["beliefdb_shard_up"]
        assert {
            s["labels"]["shard"]: s["value"] for s in up["samples"]
            if s["labels"]["shard"] != "router"
        } == {str(s): 1.0 for s in range(cluster.n_shards)}

    def test_shard_status_op(self, cluster, client):
        status = client.call("shard_status")
        assert status["n_shards"] == cluster.n_shards
        assert status["ring"] == {
            "n_shards": cluster.n_shards,
            "vnodes": cluster.router.ring.vnodes,
        }
        assert all(row["healthy"] for row in status["shards"])
        assert status["router"]["sessions_active"] >= 1


class TestFrameCeiling:
    """Satellite: the configurable frame ceiling holds across fan-out."""

    CEILING = 1 << 16

    @pytest.fixture(scope="class")
    def small_cluster(self):
        spec = WorkerSpec(max_frame_bytes=self.CEILING)
        with ShardCluster(
            n_shards=2, spec=spec, max_frame_bytes=self.CEILING
        ) as c:
            yield c

    def test_fanout_pages_stay_under_the_ceiling(self, small_cluster):
        wide = "x" * 2000  # ~2 KB per row, 64 KiB ceiling
        with BeliefClient(
            *small_cluster.address, max_frame_bytes=self.CEILING
        ) as client:
            client.login("Wide", create=True)
            client.execute_batch(
                INSERT,
                [[f"wide-{i:03d}", "u", wide, "d", "l"] for i in range(60)],
            )
            payload = client.execute_prepared(
                "select S.sid, S.species from BELIEF 'Wide' Sightings as S"
            )
            assert payload["rowcount"] == 60
            # 60 × 2 KB ≈ 120 KB cannot fit one 64 KiB frame: the router
            # byte-capped the first page and opened a cursor for the rest.
            assert len(payload["rows"]) < 60
            assert payload["has_more"] is True
            rows = client.drain(payload)
            assert len(rows) == 60

    def test_oversized_single_row_fails_typed_not_disconnect(
        self, small_cluster
    ):
        giant = "y" * (self.CEILING + 1000)
        with BeliefClient(
            *small_cluster.address, max_frame_bytes=self.CEILING
        ) as client:
            client.login("Giant", create=True)
            with pytest.raises(FrameTooLargeError) as excinfo:
                client.execute_prepared(INSERT, ["g-1", "u", giant, "d", "l"])
            assert excinfo.value.code == "FRAME_TOO_LARGE"
            # The connection survived the refusal.
            assert client.call("ping") == "pong"


class TestAdmissionPropagation:
    """Satellite: worker sheds propagate typed; exempt ops bypass router
    admission (including the router-only ``shard_status``)."""

    def test_worker_shed_propagates_typed_through_router(self):
        spec = WorkerSpec(max_inflight_requests=1)
        with ShardCluster(n_shards=2, spec=spec) as cluster:
            # Plain selects route to the content world's home shard —
            # block THAT worker so both the blocker and the probe hit it.
            # MVCC reads skip the RW lock, but pinning a version still
            # passes through the BDMS write mutex — hold it to stall them.
            content = cluster.router.ring.shard_for(CONTENT_KEY)
            worker = cluster.coordinator.workers[content]
            worker._server.db._write_mutex.acquire()  # selects now queue
            blocker = BeliefClient(*cluster.address)
            probe = BeliefClient(*cluster.address)
            try:
                # Occupy shard 0's single in-flight slot with a blocked
                # read (submit: don't wait for the reply).
                pending = blocker.submit(
                    "execute_prepared", sql="select S.sid from Sightings as S"
                )
                import time
                deadline = time.time() + 5
                while time.time() < deadline:
                    if worker._server._inflight_now() >= 1:
                        break
                    time.sleep(0.01)
                with pytest.raises(ServerOverloadedError) as excinfo:
                    probe.call(
                        "execute_prepared", sql="select S.sid from Sightings as S"
                    )
                assert excinfo.value.code == "SERVER_OVERLOADED"
                assert "in-flight request limit (1)" in str(excinfo.value)
            finally:
                worker._server.db._write_mutex.release()
                pending.result()  # the blocked read completes fine
                blocker.close()
                probe.close()

    def test_exempt_ops_bypass_router_admission(self):
        with ShardCluster(n_shards=2, max_inflight_requests=1) as cluster:
            content = cluster.router.ring.shard_for(CONTENT_KEY)
            worker = cluster.coordinator.workers[content]
            # Stall reads at the version-pin point (see above): MVCC
            # selects never touch the worker's RW lock.
            worker._server.db._write_mutex.acquire()
            blocker = BeliefClient(*cluster.address)
            probe = BeliefClient(*cluster.address)
            try:
                pending = blocker.submit(
                    "execute_prepared", sql="select S.sid from Sightings as S"
                )
                import time
                deadline = time.time() + 5
                while time.time() < deadline:
                    if cluster.router._inflight_now() >= 1:
                        break
                    time.sleep(0.01)
                # The router's own single slot is taken: data ops shed…
                with pytest.raises(ServerOverloadedError):
                    probe.call("users")
                # …but ping, metrics, AND shard_status still answer.
                assert probe.call("ping") == "pong"
                assert probe.call("metrics")["families"]
                assert probe.call("shard_status")["n_shards"] == 2
            finally:
                worker._server.db._write_mutex.release()
                pending.result()
                blocker.close()
                probe.close()


DISPUTE = "insert into BELIEF ? not Sightings values (?,?,?,?,?)"


@pytest.mark.parametrize("batched", [False, True], ids=["one-by-one", "batched"])
def test_concurrent_curators_through_the_router(batched):
    """Eight clients on their own streams through the router to four
    shards, writing one statement at a time or in per-user batches: none
    errs or hangs, and each reads back every sighting it reported."""
    streams = concurrent_trace(8, 24, seed=11, schema=sightings_schema())
    errors: list = []
    with ShardCluster(n_shards=4) as cluster:

        def worker(user: str, ops) -> None:
            try:
                with BeliefClient(*cluster.address) as client:
                    client.login(user, create=True)
                    inserts = [list(op.values) for op in ops
                               if op.kind == "insert"]
                    disputes = [[user, *op.values] for op in ops
                                if op.kind == "dispute"]
                    if batched:
                        for sql, rows in ((INSERT, inserts),
                                          (DISPUTE, disputes)):
                            if rows:
                                client.execute_batch(sql, rows)
                    else:
                        for op in ops:
                            if op.kind == "insert":
                                client.execute_prepared(INSERT, op.values)
                            elif op.kind == "dispute":
                                client.execute_prepared(
                                    "insert into not Sightings "
                                    "values (?,?,?,?,?)", op.values,
                                )
                            else:
                                client.drain(client.execute_prepared(op.sql))
                    rows = client.drain(client.execute_prepared(
                        f"select S.sid from BELIEF '{user}' Sightings as S"
                    ))
                    assert {v[0] for v in inserts} <= {r[0] for r in rows}
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
