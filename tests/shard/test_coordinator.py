"""Fleet supervision: health, restart, directory epochs, typed refusals.

Thread workers keep these tests fast; the full SIGKILL/process story is
``test_failover.py``. The contract: a dead worker is restarted on its own
data directory (WAL recovery included), the directory answers a typed
``SHARD_UNAVAILABLE`` — never a hang — while the shard is down, and the
router transparently reconnects once the epoch bumps.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ShardUnavailableError
from repro.server.client import BeliefClient
from repro.shard import Coordinator, ShardCluster, ShardDirectory, WorkerSpec

INSERT = "insert into Sightings values (?,?,?,?,?)"


def _wait_until(predicate, timeout: float = 15.0) -> bool:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def test_directory_lookup_of_down_shard_is_typed_not_a_hang():
    directory = ShardDirectory(2)
    directory.register(0, ("127.0.0.1", 1111))
    with pytest.raises(ShardUnavailableError) as excinfo:
        directory.lookup(1)
    assert excinfo.value.code == "SHARD_UNAVAILABLE"
    assert directory.lookup(0) == (("127.0.0.1", 1111), 1)


def test_directory_epoch_bumps_on_reregistration():
    directory = ShardDirectory(1)
    directory.register(0, ("127.0.0.1", 1111))
    directory.mark_unhealthy(0)
    directory.register(0, ("127.0.0.1", 2222))
    assert directory.lookup(0) == (("127.0.0.1", 2222), 2)


def test_coordinator_spawns_and_answers_on_every_shard():
    with Coordinator(3) as coordinator:
        assert coordinator.wait_healthy(timeout=15)
        for shard in range(3):
            address, epoch = coordinator.directory.lookup(shard)
            assert epoch == 1
            with BeliefClient(*address) as direct:
                assert direct.call("ping") == "pong"
        status = coordinator.status()
        assert status["n_shards"] == 3
        assert all(row["healthy"] for row in status["shards"])


def test_killed_worker_is_restarted_with_an_epoch_bump():
    with Coordinator(2, ping_interval=0.05) as coordinator:
        assert coordinator.wait_healthy(timeout=15)
        coordinator.kill_worker(1)
        with pytest.raises(ShardUnavailableError):
            coordinator.directory.lookup(1)
        assert _wait_until(lambda: coordinator.directory.healthy(1))
        assert coordinator.restarts(1) == 1
        assert coordinator.directory.epoch(1) == 2
        address, _ = coordinator.directory.lookup(1)
        with BeliefClient(*address) as direct:
            assert direct.call("ping") == "pong"


class _Incarnations:
    """A stand-in worker recording whether two of its kills / starts ever
    ran at once."""

    kind = "fake"
    pid = None
    shard_id = 0

    def __init__(self) -> None:
        self._guard = threading.Lock()
        self.busy = 0
        self.overlapped = False

    def _work(self) -> None:
        with self._guard:
            self.busy += 1
            self.overlapped |= self.busy > 1
        time.sleep(0.02)
        with self._guard:
            self.busy -= 1

    def start(self) -> tuple[str, int]:
        self._work()
        return ("127.0.0.1", 1)

    def kill(self) -> None:
        self._work()

    def alive(self) -> bool:
        return True


def test_a_deliberate_kill_never_lands_inside_a_restart():
    """``kill_worker`` and the health thread's restart both kill and start
    the one worker. Interleaved, a kill could orphan the incarnation the
    restart had just started — a real process that then held the data
    directory's lock against every later restart, so the shard never came
    back."""
    coordinator = Coordinator(1)  # never started: no health thread
    worker = coordinator.workers[0] = _Incarnations()
    restarts = [
        threading.Thread(target=coordinator._restart, args=(worker,))
        for _ in range(3)
    ]
    for thread in restarts:
        thread.start()
    for _ in range(3):
        coordinator.kill_worker(0)
    for thread in restarts:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in restarts)
    assert not worker.overlapped
    assert coordinator.restarts(0) == 3


def test_restart_recovers_the_wal_on_the_same_data_dir(tmp_path):
    spec = WorkerSpec(wal_sync="always")
    with ShardCluster(
        n_shards=2, spec=spec, data_dir=str(tmp_path), ping_interval=0.05
    ) as cluster:
        with BeliefClient(*cluster.address) as client:
            client.login("Durable", create=True)
            row = ["wal-1", "u", "crane", "d", "l"]
            assert client.execute_prepared(INSERT, row)["rowcount"] == 1
            home = cluster.router.ring.shard_for("Durable")
            cluster.coordinator.kill_worker(home)
            assert _wait_until(
                lambda: cluster.coordinator.directory.healthy(home)
            )
            # The restarted incarnation replayed its WAL: the acknowledged
            # write is still there, reached through the router (which had
            # to notice the epoch bump and reconnect).
            assert client.call(
                "believes", relation="Sightings", values=row
            ) is True


def test_router_refuses_typed_while_shard_is_down(tmp_path):
    # A long ping interval keeps the shard down while we probe.
    with ShardCluster(n_shards=2, ping_interval=5.0) as cluster:
        with BeliefClient(*cluster.address) as client:
            client.login("Refused", create=True)
            home = cluster.router.ring.shard_for("Refused")
            cluster.coordinator.kill_worker(home)
            with pytest.raises(ShardUnavailableError) as excinfo:
                client.execute_prepared(INSERT, ["r-1", "u", "loon", "d", "l"])
            assert excinfo.value.code == "SHARD_UNAVAILABLE"
            # A single-world select routes to its world's home shard, so
            # worlds living on the surviving shard stay readable…
            ring = cluster.router.ring
            i = 0
            while ring.shard_for(f"alive-{i}") == home:
                i += 1
            survivor = f"alive-{i}"
            client.login(survivor, create=True)
            assert client.drain(client.execute_prepared(
                f"select S.sid from BELIEF '{survivor}' Sightings as S"
            )) == []
            # …while a true fan-out read refuses typed rather than
            # silently dropping the dead shard's worlds.
            with pytest.raises(ShardUnavailableError):
                client.call("worlds")
            # Observability stays up while a shard is down.
            assert client.call("ping") == "pong"
            stats = client.stats()
            assert stats["shards_reached"] == 1
            assert stats["shards"][str(home)] == {"unavailable": True}
            status = client.call("shard_status")
            assert status["shards"][home]["healthy"] is False


def test_shard_status_tracks_restarts_and_load():
    with ShardCluster(n_shards=2, ping_interval=0.05) as cluster:
        with BeliefClient(*cluster.address) as client:
            client.login("Loady", create=True)
            for i in range(10):
                client.execute_prepared(
                    INSERT, [f"load-{i}", "u", "gull", "d", "l"]
                )
            cluster.coordinator.kill_worker(0)
            assert _wait_until(
                lambda: cluster.coordinator.directory.healthy(0)
            )
            status = client.call("shard_status")
            assert status["shards"][0]["restarts"] == 1
            assert status["shards"][0]["epoch"] == 2
            assert status["shards"][1]["restarts"] == 0
