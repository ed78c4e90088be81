"""MVCC invariants: copy-on-write forks, version pinning, and the GC.

The lifecycle contract lives in ``docs/concurrency.md`` and
``src/repro/storage/mvcc.py``; this suite pins the parts everything else
leans on:

* forks are frozen — mutating the live store never leaks into a fork, and
  mutating a fork (the transaction read view does) never leaks back;
* pins are cached per epoch and versions are garbage-collected exactly
  when retired *and* unpinned;
* the ``beliefdb_mvcc_*`` metrics and ``snapshot_stats()["mvcc"]``
  counters track the lifecycle;
* the stats surface itself holds no pins between calls — a monitoring
  loop (``repro stats --watch``) cannot grow the version cache.
"""

from __future__ import annotations

import gc
import weakref

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.obs.metrics import MetricsRegistry
from repro.storage.mvcc import VersionManager
from repro.storage.store import BeliefStore

ROW = ("s1", "Carol", "bald eagle", "6-14-08", "Lake Forest")
BCQ = "q(s) :- ['Carol'] Sightings+(s, u, sp, d, l)"


def seeded_db(**kwargs) -> BeliefDBMS:
    db = BeliefDBMS(sightings_schema(), **kwargs)
    db.add_user("Carol")
    db.add_user("Bob")
    db.insert(["Carol"], "Sightings", ROW)
    return db


# ------------------------------------------------------------ fork freezing


def test_fork_does_not_see_later_writes():
    db = seeded_db()
    fork = db.store.fork_snapshot()
    before = {t.values[0] for t in fork.entailed_world((1,)).positives}
    db.insert(["Carol"], "Sightings", ("s2",) + ROW[1:])
    db.insert(["Bob"], "Sightings", ("s3",) + ROW[1:])
    after = {t.values[0] for t in fork.entailed_world((1,)).positives}
    assert before == after == {"s1"}
    # The live store moved on.
    live = {t.values[0] for t in db.store.entailed_world((1,)).positives}
    assert live == {"s1", "s2"}


def test_fork_does_not_see_later_deletes():
    db = seeded_db()
    fork = db.store.fork_snapshot()
    db.delete(["Carol"], "Sightings", ROW)
    assert not db.store.entailed_world((1,)).positives
    kept = {t.values[0] for t in fork.entailed_world((1,)).positives}
    assert kept == {"s1"}


def test_fork_does_not_see_new_users_or_worlds():
    db = seeded_db()
    fork = db.store.fork_snapshot()
    db.add_user("Dave")
    db.insert(["Bob", "Carol"], "Sightings", ("s9",) + ROW[1:])
    assert "Dave" not in fork.users().values()
    assert fork.world_count() < db.store.world_count()


def test_mutating_a_fork_never_leaks_back():
    """The transaction read view applies staged DML to a fork; the live
    store (and sibling forks of the same epoch) must stay untouched."""
    from repro.core.statements import POSITIVE
    from repro.storage.updates import insert_tuple

    db = seeded_db()
    sibling = db.store.fork_snapshot()
    fork = db.store.fork_snapshot()
    t = db.schema.tuple("Sightings", *(("sF",) + ROW[1:]))
    assert insert_tuple(fork, (1,), t, POSITIVE)
    in_fork = {x.values[0] for x in fork.entailed_world((1,)).positives}
    assert "sF" in in_fork
    for untouched in (db.store, sibling):
        names = {x.values[0] for x in untouched.entailed_world((1,)).positives}
        assert names == {"s1"}


def test_fork_explicit_statements_are_frozen():
    """A fork's explicit statements are its own V's ``e='y'`` rows: the
    live store's later inserts and deletes never reach them."""
    db = seeded_db()
    fork = db.store.fork_snapshot()
    frozen = set(fork.explicit_statements())
    db.insert(["Carol"], "Sightings", ("s2",) + ROW[1:])
    db.delete(["Carol"], "Sightings", ROW)
    assert set(fork.explicit_statements()) == frozen
    assert fork.explicit_count == len(frozen) == 1
    assert set(db.store.explicit_statements()) != frozen


# ----------------------------------------------------------- pinning and GC


def test_pins_share_one_fork_per_epoch():
    db = seeded_db()
    v1 = db.pin_version()
    v2 = db.pin_version()
    try:
        assert v1 is v2
        assert v1.pins == 2
    finally:
        db.release_version(v1)
        db.release_version(v2)


def test_write_retires_version_and_gc_reclaims_when_unpinned():
    db = seeded_db()
    manager = db.versions
    v = db.pin_version()
    epoch_before = v.epoch
    db.insert(["Carol"], "Sightings", ("s2",) + ROW[1:])
    assert manager.epoch > epoch_before
    # Still pinned: the retired version survives.
    assert manager.live_versions() >= 1
    stats_before = manager.snapshot_stats()
    db.release_version(v)
    stats = manager.snapshot_stats()
    assert stats["gc_reclaimed"] == stats_before["gc_reclaimed"] + 1
    assert stats["active_pins"] == 0


def test_current_version_stays_cached_at_zero_pins():
    db = seeded_db()
    with db.read_view():
        pass
    assert db.versions.live_versions() == 1  # cached for the next reader
    builds = db.versions.snapshot_stats()["snapshot_builds"]
    with db.read_view():
        pass
    assert db.versions.snapshot_stats()["snapshot_builds"] == builds


def test_a_write_copies_rows_only_for_a_pinned_reader():
    """The idle current version is let go of before the write, not after it:
    the table then has no fork to copy its row dict for."""
    db = seeded_db()
    rows_id = lambda: id(db.store.v_table("Sightings")._rows)  # noqa: E731
    assert db.query(BCQ) == {("s1",)}
    assert db.versions.live_versions() == 1  # cached, nobody pins it
    before, reclaimed = rows_id(), db.versions.snapshot_stats()["gc_reclaimed"]
    db.insert(["Carol"], "Sightings", ("s2",) + ROW[1:])
    assert rows_id() == before
    assert db.versions.snapshot_stats()["gc_reclaimed"] == reclaimed + 1
    assert db.query(BCQ) == {("s1",), ("s2",)}

    with db.read_view() as reader:  # pinned across the next write: copied for
        before = rows_id()
        db.insert(["Carol"], "Sightings", ("s3",) + ROW[1:])
        assert rows_id() != before
        assert db.query(BCQ, version=reader) == {("s1",), ("s2",)}
    assert db.query(BCQ) == {("s1",), ("s2",), ("s3",)}


def test_retire_idle_spares_pinned_versions_and_carries_the_mirror():
    db = seeded_db(backend="sqlite")
    manager = db.versions
    assert db.query(BCQ) == {("s1",)}  # builds the version's mirror
    pinned = db.pin_version()
    manager.retire_idle()
    assert manager.live_versions() == 1 and not manager.has_carried_mirror()
    db.release_version(pinned)
    manager.retire_idle()
    assert manager.live_versions() == 0 and manager.has_carried_mirror()
    db.insert(["Carol"], "Sightings", ("s2",) + ROW[1:])
    assert db.query(BCQ) == {("s1",), ("s2",)}  # the next version advances it
    stats = manager.snapshot_stats()
    assert (stats["mirror_syncs_full"], stats["mirror_syncs_delta"]) == (1, 1)


def test_a_dropped_database_frees_its_cached_fork_without_the_collector():
    """The cached version names its manager by weak reference: a database
    dropped without ``close()`` after a read frees the fork at once."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        db = seeded_db()
        assert db.query(BCQ) == {("s1",)}  # caches the epoch's version
        version = db.pin_version()
        fork = weakref.ref(version.store)
        db.release_version(version)
        del version
        assert fork() is not None
        del db
        assert fork() is None
    finally:
        if enabled:
            gc.enable()


def test_live_versions_bounded_under_write_churn():
    db = seeded_db()
    for i in range(100):
        db.insert(["Carol"], "Sightings", (f"w{i}",) + ROW[1:])
        db.query(BCQ)
    stats = db.versions.snapshot_stats()
    assert stats["live_versions"] == 1
    assert stats["active_pins"] == 0


def test_invalidate_refuses_to_reuse_discarded_store():
    manager = VersionManager()
    store = BeliefStore(sightings_schema())
    v = manager.pin(store)
    manager.invalidate()
    replacement = BeliefStore(sightings_schema())
    v2 = manager.pin(replacement)
    assert v2 is not v
    assert v2.store is not v.store
    manager.release(v)
    manager.release(v2)


# ------------------------------------------------------------------ metrics


def test_mvcc_metrics_registered_and_tracking():
    registry = MetricsRegistry()
    db = BeliefDBMS(sightings_schema(), metrics=registry)
    db.add_user("Carol")
    db.insert(["Carol"], "Sightings", ROW)
    db.query(BCQ)
    families = {f["name"]: f for f in registry.snapshot()}
    for name in (
        "beliefdb_mvcc_live_versions",
        "beliefdb_mvcc_active_pins",
        "beliefdb_mvcc_pins_total",
        "beliefdb_mvcc_gc_reclaimed_total",
        "beliefdb_mvcc_snapshot_builds_total",
        "beliefdb_mvcc_snapshot_build_seconds",
    ):
        assert name in families, name


def test_mirror_sync_metrics_tell_full_builds_from_deltas():
    registry = MetricsRegistry()
    db = BeliefDBMS(sightings_schema(), backend="sqlite", metrics=registry)
    db.add_user("Carol")
    db.insert(["Carol"], "Sightings", ROW)
    db.query(BCQ)  # full
    db.insert(["Carol"], "Sightings", ("s2",) + ROW[1:])
    db.query(BCQ)  # delta
    db.query(BCQ)  # same epoch: no sync
    with db.read_view():  # a long-pinned reader...
        db.insert(["Carol"], "Sightings", ("s3",) + ROW[1:])
        db.query(BCQ)  # ...costs the next epoch a full build
    families = {f["name"]: f for f in registry.snapshot()}
    syncs = {
        sample["labels"]["kind"]: sample["value"]
        for sample in families["beliefdb_mvcc_mirror_syncs_total"]["samples"]
    }
    assert syncs == {"full": 2, "delta": 1}
    assert families["beliefdb_mvcc_mirror_sync_seconds"]["samples"][0]["count"] == 3
    delta_rows = families["beliefdb_mvcc_mirror_delta_rows"]["samples"][0]
    assert delta_rows["count"] == 1 and delta_rows["sum"] >= 2  # star + V rows
    mvcc = db.snapshot_stats()["mvcc"]
    assert (mvcc["mirror_syncs_full"], mvcc["mirror_syncs_delta"]) == (2, 1)
    assert mvcc["mirror_delta_rows"] == delta_rows["sum"]


def test_snapshot_stats_reports_version_and_mvcc_section():
    db = seeded_db()
    stats = db.snapshot_stats()
    assert stats["version"] == db.versions.epoch
    mvcc = stats["mvcc"]
    assert mvcc["active_pins"] == 0
    assert mvcc["pins_total"] >= 1  # snapshot_stats itself pinned


# ------------------------------------------- stats --watch holds no pins


def test_stats_watch_loop_does_not_pin_versions_forever():
    """Regression: a long-lived monitoring loop (``repro stats --watch``)
    interleaved with writes must not accumulate versions or pins — every
    ``snapshot_stats`` pins, reads, and releases within the call."""
    db = seeded_db()
    for i in range(50):
        db.snapshot_stats()  # one watch iteration
        db.insert(["Carol"], "Sightings", (f"m{i}",) + ROW[1:])
    stats = db.versions.snapshot_stats()
    assert stats["active_pins"] == 0
    assert stats["live_versions"] <= 1  # at most the current epoch's cache
    assert stats["gc_reclaimed"] >= 49


def test_stats_op_over_the_wire_holds_no_pins():
    from repro.server.client import BeliefClient
    from repro.server.server import BeliefServer

    db = seeded_db()
    with BeliefServer(db) as server:
        with BeliefClient(*server.address) as client:
            for i in range(10):
                payload = client.stats()
                assert "mvcc" in payload and "version" in payload
                client.execute_prepared(
                    "insert into BELIEF 'Carol' Sightings values (?,?,?,?,?)",
                    [f"w{i}"] + list(ROW[1:]),
                )
    stats = db.versions.snapshot_stats()
    assert stats["active_pins"] == 0
    assert stats["live_versions"] <= 1
