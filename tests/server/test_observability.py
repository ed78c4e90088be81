"""The observability surface of both server cores.

The ``metrics`` wire op must behave identically on the threaded and asyncio
cores (same families, same slow-op records, served without the database
lock); the ``stats`` op must merge server-level fields into the BDMS
snapshot; and the per-op histograms, in-flight gauge, lock timings, WAL
timings, and cache counters must all actually move when traffic flows.
"""

from __future__ import annotations

import time

import pytest

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.durability.manager import DurabilityManager
from repro.server.async_server import AsyncBeliefServer
from repro.server.client import BeliefClient
from repro.server.server import BeliefServer

CORES = [BeliefServer, AsyncBeliefServer]


def _db() -> BeliefDBMS:
    db = BeliefDBMS(sightings_schema(), strict=False)
    db.add_user("Carol")
    return db


def _families(client: BeliefClient) -> dict:
    return {f["name"]: f for f in client.metrics()["families"]}


@pytest.mark.parametrize("core", CORES)
def test_metrics_op_uniform_across_cores(core):
    with core(_db(), slow_op_ms=0) as server:
        client = BeliefClient(*server.address)
        try:
            client.call("ping")
            client.call("users")
            payload = client.metrics()
        finally:
            client.close()
    assert set(payload) == {"families", "slow_ops"}
    families = {f["name"] for f in payload["families"]}
    # The instrumentation catalog every core must expose:
    assert {
        "beliefdb_op_seconds",
        "beliefdb_ops_total",
        "beliefdb_lock_wait_seconds",
        "beliefdb_lock_hold_seconds",
        "beliefdb_statement_seconds",
        "beliefdb_stmt_cache_events_total",
        "beliefdb_sessions_active",
        "beliefdb_inflight_requests",
        "beliefdb_connections_total",
        "beliefdb_uptime_seconds",
        "beliefdb_overload_sheds_total",
    } <= families
    # Every op the client issued (plus the metrics call itself) was traced:
    # threshold 0 records everything.
    ops = [record["op"] for record in payload["slow_ops"]]
    assert "ping" in ops and "users" in ops


@pytest.mark.parametrize("core", CORES)
def test_op_histogram_and_counters_grow(core):
    with core(_db()) as server:
        client = BeliefClient(*server.address)
        try:
            for _ in range(3):
                client.call("users")
            families = _families(client)
        finally:
            client.close()
    hist = families["beliefdb_op_seconds"]
    by_op = {s["labels"]["op"]: s for s in hist["samples"]}
    assert by_op["users"]["count"] == 3
    assert by_op["users"]["sum"] > 0
    counters = families["beliefdb_ops_total"]
    ok = {
        s["labels"]["op"]: s["value"]
        for s in counters["samples"]
        if s["labels"]["status"] == "ok"
    }
    assert ok["users"] == 3


@pytest.mark.parametrize("core", CORES)
def test_error_outcomes_counted(core):
    with core(_db()) as server:
        client = BeliefClient(*server.address)
        try:
            with pytest.raises(Exception):
                client.call("believes", relation="Nope", values=[])
            families = _families(client)
        finally:
            client.close()
    statuses = {
        (s["labels"]["op"], s["labels"]["status"]): s["value"]
        for s in families["beliefdb_ops_total"]["samples"]
    }
    assert statuses.get(("believes", "error")) == 1


@pytest.mark.parametrize("core", CORES)
def test_stats_op_merges_server_fields(core):
    with core(_db(), max_sessions=10, max_inflight_requests=8) as server:
        client = BeliefClient(*server.address)
        try:
            client.call("ping")
            time.sleep(0.005)  # uptime is rounded to 1ms; let it tick
            stats = client.stats()
        finally:
            client.close()
    server_stats = stats["server"]
    assert server_stats["sessions_active"] == 1
    assert server_stats["connections_total"] == 1
    # The stats request itself is the one in flight.
    assert server_stats["inflight_requests"] == 1
    assert server_stats["uptime_seconds"] > 0
    assert server_stats["max_sessions"] == 10
    assert server_stats["max_inflight_requests"] == 8
    assert server_stats["overload_sheds"] == 0
    assert server_stats["slow_ops_recorded"] == 0
    for legacy in ("ops_served", "op_errors", "protocol_errors",
                   "checkpoints", "checkpoint_errors", "connections_active"):
        assert legacy in server_stats
    # The BDMS snapshot is still intact underneath.
    assert "statement_cache" in stats
    assert "statement_timing" in stats
    assert stats["statement_cache"]["hit_rate"] == 0.0


@pytest.mark.parametrize("core", CORES)
def test_inflight_returns_to_zero_and_sessions_track(core):
    with core(_db()) as server:
        client = BeliefClient(*server.address)
        try:
            client.call("ping")
        finally:
            client.close()
        deadline = time.time() + 5
        while time.time() < deadline:
            if server.stats["connections_active"] == 0:
                break
            time.sleep(0.01)
        assert server._inflight_now() == 0
        gauges = {f.name: f for f in server.metrics.families()}
        assert gauges["beliefdb_inflight_requests"]._default.value == 0
        assert gauges["beliefdb_sessions_active"]._default.value == 0


@pytest.mark.parametrize("core", CORES)
def test_slow_op_threshold_filters(core):
    # Default threshold (250 ms): sub-millisecond ops never appear.
    with core(_db()) as server:
        client = BeliefClient(*server.address)
        try:
            client.call("ping")
            assert client.metrics()["slow_ops"] == []
        finally:
            client.close()


def test_wal_and_lock_metrics_move_on_durable_writes(tmp_path):
    db = BeliefDBMS(
        sightings_schema(), strict=False,
        durability=DurabilityManager(str(tmp_path / "data")),
    )
    db.add_user("Carol")
    with BeliefServer(db) as server:
        client = BeliefClient(*server.address)
        try:
            client.execute_prepared(
                "insert into BELIEF 'Carol' Sightings values (?,?,?,?,?)",
                ["s1", "Carol", "bald eagle", "2008-05-12", "HMP"],
            )
            families = _families(client)
        finally:
            client.close()
    for name in ("beliefdb_wal_append_seconds", "beliefdb_wal_fsync_seconds"):
        (sample,) = families[name]["samples"]
        assert sample["count"] >= 1, name
    (batch,) = families["beliefdb_wal_batch_records"]["samples"]
    assert batch["count"] >= 1
    wait = {
        s["labels"]["mode"]: s["count"]
        for s in families["beliefdb_lock_wait_seconds"]["samples"]
    }
    hold = {
        s["labels"]["mode"]: s["count"]
        for s in families["beliefdb_lock_hold_seconds"]["samples"]
    }
    assert wait.get("write", 0) >= 1
    assert hold.get("write", 0) >= 1
    db.close()


def test_statement_cache_metrics_and_hit_rate():
    db = _db()
    with BeliefServer(db) as server:
        client = BeliefClient(*server.address)
        try:
            for _ in range(4):
                client.prepare("select S.sid from Sightings as S")
            families = _families(client)
            stats = client.stats()
        finally:
            client.close()
    events = {
        s["labels"]["event"]: s["value"]
        for s in families["beliefdb_stmt_cache_events_total"]["samples"]
    }
    assert events["miss"] >= 1
    assert events["hit"] >= 2
    cache = stats["statement_cache"]
    assert cache["hit_rate"] == pytest.approx(
        cache["hits"] / (cache["hits"] + cache["misses"])
    )


def test_metrics_op_served_while_write_lock_held():
    """The scrape path must not queue on the database lock."""
    with BeliefServer(_db()) as server:
        server.lock.acquire_write()
        try:
            client = BeliefClient(*server.address)
            try:
                assert client.call("ping") == "pong"
                assert client.metrics()["families"]
            finally:
                client.close()
        finally:
            server.lock.release_write()
