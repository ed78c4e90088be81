"""In-process durable server: background checkpoints, stats, write path."""

from __future__ import annotations

import time

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.durability import DurabilityManager, snapshot as snap
from repro.server import BeliefClient, BeliefServer

INSERT = "insert into Sightings values (?,?,?,?,?)"


def _durable(tmp_path) -> BeliefDBMS:
    return BeliefDBMS(
        sightings_schema(), strict=False,
        durability=DurabilityManager(str(tmp_path / "data")),
    )


def test_background_checkpoint_thread(tmp_path):
    db = _durable(tmp_path)
    with BeliefServer(db, checkpoint_interval=0.05) as server:
        with BeliefClient(*server.address) as client:
            client.login("Carol", create=True)
            for i in range(5):
                client.execute_prepared(
                    INSERT, [f"s{i}", "Carol", "crow", "6-14-08", "loc"]
                )
            deadline = time.time() + 10
            while time.time() < deadline:
                if client.stats()["durability"]["checkpoints"] >= 1:
                    break
                time.sleep(0.02)
            stats = client.stats()
    assert stats["durability"]["checkpoints"] >= 1
    assert stats["server"]["checkpoints"] >= 1
    assert stats["server"]["checkpoint_errors"] == 0
    assert snap.list_snapshots(db.durability.snapshot_dir)
    db.close()


def test_checkpoint_thread_not_started_without_durability(tmp_path):
    db = BeliefDBMS(sightings_schema(), strict=False)
    with BeliefServer(db, checkpoint_interval=0.05) as server:
        assert server._checkpoint_thread is None


def test_idle_durable_server_does_not_rewrite_snapshots(tmp_path):
    db = _durable(tmp_path)
    db.add_user("Carol")
    with BeliefServer(db, checkpoint_interval=0.02) as server:
        with BeliefClient(*server.address) as client:
            client.execute_prepared(
                "insert into BELIEF 'Carol' Sightings values (?,?,?,?,?)",
                ["s1", "Carol", "crow", "6-14-08", "loc"],
            )
        deadline = time.time() + 10
        while time.time() < deadline:
            if db.durability.checkpoints >= 1:
                break
            time.sleep(0.02)
        count = db.durability.checkpoints
        assert count >= 1
        time.sleep(0.2)  # many intervals, zero new records
        assert db.durability.checkpoints == count
    db.close()


def test_checkpoint_thread_exits_on_failed_manager(tmp_path):
    """A failed-stop manager can never checkpoint; the background thread
    must stop rather than stall the server under the write lock forever."""
    db = _durable(tmp_path)
    db.add_user("Carol")
    db.insert(["Carol"], "Sightings", ("s1", "Carol", "crow", "d", "l"))
    with BeliefServer(db, checkpoint_interval=0.02) as server:

        def broken_append(records):
            raise OSError(28, "No space left on device")

        # Single-record logs route through the shared batch append path.
        db.durability._writer.append_batch = broken_append
        try:
            db.insert(["Carol"], "Sightings", ("s2", "Carol", "loon", "d", "l"))
        except Exception:  # noqa: BLE001 — the append failure, expected
            pass
        assert db.durability.failed
        deadline = time.time() + 10
        while time.time() < deadline:
            thread = server._checkpoint_thread
            if thread is None or not thread.is_alive():
                break
            time.sleep(0.02)
        thread = server._checkpoint_thread
        assert thread is None or not thread.is_alive()
        # At most one error from the benign race where the loop passed its
        # health check just as the manager failed; never one per interval.
        assert server.stats["checkpoint_errors"] <= 1
    db.close()


def test_server_write_path_is_wal_logged_before_ack(tmp_path):
    """An acknowledged client write is on disk even with no checkpoint."""
    db = _durable(tmp_path)
    with BeliefServer(db) as server:
        with BeliefClient(*server.address) as client:
            client.login("Carol", create=True)
            assert client.execute_prepared(
                INSERT, ["s1", "Carol", "bald eagle", "6-14-08", "loc"]
            )["rowcount"] == 1
            assert client.execute_prepared(
                INSERT,
                ["s2", "Carol", "crow", "6-15-08", "Union Bay"],
            )["rowcount"] == 1
    db.close()  # crash-equivalent: flush only, no checkpoint

    db2 = _durable(tmp_path)
    assert db2.believes(
        ["Carol"], "Sightings", ("s1", "Carol", "bald eagle", "6-14-08", "loc")
    )
    assert db2.believes(
        ["Carol"], "Sightings", ("s2", "Carol", "crow", "6-15-08", "Union Bay")
    )
    db2.close()
