"""DurabilityManager end-to-end: log → close (crash-equivalent) → recover.

``DurabilityManager.close()`` deliberately does *not* checkpoint, so every
close/reopen cycle here exercises the same code path a SIGKILL does (with
``sync="always"`` the bytes were already on disk); the subprocess SIGKILL
test lives in ``test_crash_recovery.py``.
"""

from __future__ import annotations

import os

import pytest

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.durability import DurabilityManager, snapshot as snap, wal
from repro.errors import BeliefDBError, DurabilityError, WalCorruptionError

SIGHTING = ("s1", "Carol", "bald eagle", "6-14-08", "Lake Forest")


def _durable(tmp_path, **kwargs) -> BeliefDBMS:
    return BeliefDBMS(
        sightings_schema(), strict=False,
        durability=DurabilityManager(str(tmp_path / "data"), **kwargs),
    )


def _explicit(db: BeliefDBMS) -> list[str]:
    return sorted(str(s) for s in db.store.explicit_statements())


def _workload(db: BeliefDBMS) -> None:
    db.add_user("Carol")
    db.add_user("Bob")
    db.execute_sql(
        "insert into BELIEF ? Sightings values (?,?,?,?,?)",
        ("Carol",) + SIGHTING,
    )
    db.execute_sql(
        "insert into BELIEF ? not Sightings values (?,?,?,?,?)",
        ("Bob",) + SIGHTING,
    )
    db.insert(["Bob"], "Sightings", ("s2", "Bob", "crow", "6-15-08", "Union Bay"))
    db.execute_sql(
        "update BELIEF 'Bob' Sightings set location = ? where sid = ?",
        ("Puget Sound", "s2"),
    )
    db.insert(["Carol"], "Sightings", ("s3", "Carol", "osprey", "d", "l"))
    db.delete(["Carol"], "Sightings", ("s3", "Carol", "osprey", "d", "l"))


def test_crash_equivalent_reopen_restores_state(tmp_path):
    db = _durable(tmp_path)
    _workload(db)
    before = _explicit(db)
    users = db.users()
    db.close()  # no checkpoint: recovery must come purely from the WAL

    db2 = _durable(tmp_path)
    assert _explicit(db2) == before
    assert db2.users() == users
    report = db2.durability.last_recovery
    assert report.snapshot_seq == 0 and report.wal_records > 0
    db2.store.check_invariants()
    db2.close()


def test_snapshot_plus_tail_recovery_and_pruning(tmp_path):
    db = _durable(tmp_path, segment_bytes=256)
    _workload(db)
    db.checkpoint()
    db.insert(["Carol"], "Sightings", ("s4", "Carol", "raven", "d", "l"))
    before = _explicit(db)
    wal_dir = db.durability.wal_dir
    # Checkpoint pruned every segment fully covered by the snapshot.
    assert len(wal.list_segments(wal_dir)) <= 2
    db.close()

    db2 = _durable(tmp_path, segment_bytes=256)
    report = db2.durability.last_recovery
    assert report.snapshot_seq > 0
    assert report.wal_records == 1  # just the post-checkpoint insert
    assert _explicit(db2) == before
    db2.close()


def test_auto_checkpoint_every_n_records(tmp_path):
    db = _durable(tmp_path, checkpoint_every=3)
    _workload(db)
    stats = db.snapshot_stats()["durability"]
    assert stats["checkpoints"] >= 2
    assert stats["records_since_checkpoint"] < 3
    db.close()


@pytest.mark.parametrize("checkpoint_every", [0, 5, 20])
@pytest.mark.parametrize("stmt_cache_size", [128, 0])
def test_churn_recovers_exactly_at_any_checkpoint_cadence(
    tmp_path, checkpoint_every, stmt_cache_size
):
    """Every third statement deletes, so a snapshot holds the net state
    and the WAL the history: recovery from either, replayed with or
    without the statement cache, loses no statement."""
    db = _durable(tmp_path, sync="off", checkpoint_every=checkpoint_every)
    db.add_user("Carol")
    live: list[str] = []
    for i in range(60):
        if i % 3 == 2:
            db.execute_sql(
                "delete from BELIEF ? Sightings where sid = ?",
                ("Carol", live.pop(0)),
            )
        else:
            live.append(f"s{i}")
            db.execute_sql(
                "insert into BELIEF ? Sightings values (?,?,?,?,?)",
                ("Carol", f"s{i}", "Carol", "crow", "6-14-08", "Lake Forest"),
            )
    before = _explicit(db)
    checkpoints = db.snapshot_stats()["durability"]["checkpoints"]
    assert (checkpoints > 0) == (checkpoint_every > 0)
    db.close()
    recovered = BeliefDBMS(
        sightings_schema(), strict=False, stmt_cache_size=stmt_cache_size,
        durability=DurabilityManager(str(tmp_path / "data"), sync="off"),
    )
    try:
        assert _explicit(recovered) == before
        assert recovered.annotation_count() == len(live)
    finally:
        recovered.close()


def test_torn_tail_is_discarded_and_logged(tmp_path):
    db = _durable(tmp_path)
    _workload(db)
    before = _explicit(db)
    db.close()

    wal_dir = tmp_path / "data" / "wal"
    (first, path), = wal.list_segments(str(wal_dir))
    with open(path, "ab") as handle:
        handle.write(b"\x00\x00\x00\x30 torn mid-append")

    db2 = _durable(tmp_path)
    assert _explicit(db2) == before
    assert db2.durability.last_recovery.torn_tail_bytes > 0
    # The tail was truncated on disk, so appending resumes cleanly.
    db2.insert(["Carol"], "Sightings", ("s9", "Carol", "loon", "d", "l"))
    after = _explicit(db2)
    db2.close()

    db3 = _durable(tmp_path)
    assert _explicit(db3) == after
    assert db3.durability.last_recovery.torn_tail_bytes == 0
    db3.close()


def test_empty_segment_from_crashed_rotation(tmp_path):
    """Crash between rotation and first write: the empty segment must not
    collide with the seq the recovered writer reuses for its next append."""
    db = _durable(tmp_path)
    _workload(db)
    before = _explicit(db)
    next_seq = db.durability.last_seq + 1
    db.close()
    wal_dir = tmp_path / "data" / "wal"
    (wal_dir / wal.segment_name(next_seq)).touch()  # the abandoned segment

    db2 = _durable(tmp_path)
    assert _explicit(db2) == before
    # The very next append claims exactly that seq (and its segment name).
    db2.insert(["Carol"], "Sightings", ("s8", "Carol", "heron", "d", "l"))
    assert db2.durability.last_seq == next_seq
    db2.close()

    db3 = _durable(tmp_path)
    assert len(_explicit(db3)) == len(before) + 1
    db3.close()


def test_damaged_non_final_segment_refuses_recovery(tmp_path):
    db = _durable(tmp_path, segment_bytes=128)
    _workload(db)
    segments = wal.list_segments(db.durability.wal_dir)
    assert len(segments) > 1
    db.close()
    # Corrupt the FIRST segment: acknowledged history would be lost.
    with open(segments[0][1], "r+b") as handle:
        handle.seek(10)
        handle.write(b"\xff\xff\xff")
    with pytest.raises(WalCorruptionError):
        _durable(tmp_path, segment_bytes=128)


def test_damaged_newest_snapshot_falls_back_without_losing_acks(tmp_path):
    """keep_snapshots=2 must be real: the WAL is pruned only back to the
    *oldest retained* snapshot, so when the newest snapshot file is damaged
    recovery falls back one snapshot and replays the full tail — zero lost
    acknowledged writes, not a silently truncated history."""
    db = _durable(tmp_path)
    db.add_user("Carol")
    for i in range(3):
        db.insert(["Carol"], "Sightings", (f"a{i}", "Carol", "crow", "d", "l"))
    db.checkpoint()
    for i in range(3):
        db.insert(["Carol"], "Sightings", (f"b{i}", "Carol", "loon", "d", "l"))
    db.checkpoint()
    for i in range(3):
        db.insert(["Carol"], "Sightings", (f"c{i}", "Carol", "heron", "d", "l"))
    before = _explicit(db)
    snapshots = snap.list_snapshots(db.durability.snapshot_dir)
    assert len(snapshots) == 2
    db.close()

    with open(snapshots[-1][1], "w") as handle:
        handle.write("{ damaged")

    db2 = _durable(tmp_path)
    assert db2.durability.last_recovery.snapshots_skipped == 1
    assert db2.durability.last_recovery.snapshot_seq == snapshots[0][0]
    assert _explicit(db2) == before
    assert db2.annotation_count() == 9
    db2.close()


def test_missing_wal_records_refuse_recovery_loudly(tmp_path):
    """A WAL tail that does not start right after the snapshot means
    acknowledged history is gone; recovery must raise, not shrug."""
    db = _durable(tmp_path, segment_bytes=64)
    db.add_user("Carol")
    for i in range(6):
        db.insert(["Carol"], "Sightings", (f"s{i}", "Carol", "crow", "d", "l"))
    segments = wal.list_segments(db.durability.wal_dir)
    assert len(segments) >= 3
    db.close()
    os.remove(segments[0][1])  # no snapshot covers these records
    with pytest.raises(WalCorruptionError, match="missing"):
        _durable(tmp_path, segment_bytes=64)


def test_restore_round_trips_through_disk(tmp_path):
    db = _durable(tmp_path)
    _workload(db)
    before = _explicit(db)
    report = db.restore()
    assert _explicit(db) == before
    assert report["replay"]["records"] == db.durability.last_seq
    db.close()


def test_data_dir_lock_is_exclusive(tmp_path):
    db = _durable(tmp_path)
    with pytest.raises(DurabilityError):
        DurabilityManager(str(tmp_path / "data"))
    db.close()
    # Released on close: reopening works.
    _durable(tmp_path).close()


def test_double_attach_rejected(tmp_path):
    db = _durable(tmp_path)
    try:
        with pytest.raises(BeliefDBError):
            db.attach_durability(DurabilityManager(str(tmp_path / "other")))
    finally:
        db.close()


def test_durability_counters_in_snapshot_stats(tmp_path):
    db = _durable(tmp_path)
    _workload(db)
    stats = db.snapshot_stats()["durability"]
    assert stats["last_seq"] == 8  # 2 add_user + 3 execute + 2 insert + 1 delete
    assert stats["wal_segments"] == 1
    assert stats["wal_bytes"] > 0
    assert stats["sync"] == "always"
    assert stats["last_recovery"]["wal_records"] == 0
    import json

    json.dumps(stats)  # the server's stats op serializes this verbatim
    db.close()

    plain = BeliefDBMS(sightings_schema())
    assert plain.snapshot_stats()["durability"] is None


def test_closed_manager_refuses_ops(tmp_path):
    db = _durable(tmp_path)
    db.add_user("Carol")
    db.close()
    with pytest.raises(DurabilityError):
        db.insert(["Carol"], "Sightings", SIGHTING)


def test_rejected_ops_are_not_logged(tmp_path):
    db = _durable(tmp_path)
    db.add_user("Carol")
    assert db.insert(["Carol"], "Sightings", SIGHTING)
    seq_after_accept = db.durability.last_seq
    # Duplicate insert and bogus delete are rejected -> no WAL growth.
    assert not db.insert(["Carol"], "Sightings", SIGHTING)
    assert not db.delete(["Carol"], "Sightings",
                         ("zz", "Carol", "crow", "d", "l"))
    assert db.durability.last_seq == seq_after_accept
    db.close()


def test_wal_append_failure_fails_stop(tmp_path):
    """A failed append poisons the manager: memory is ahead of the log, so
    accepting more writes would let logged history depend on an unlogged op
    and brick recovery; disk must stay a consistent prefix instead."""
    db = _durable(tmp_path)
    db.add_user("Carol")
    assert db.insert(["Carol"], "Sightings", SIGHTING)

    def broken_append(records):
        raise OSError(28, "No space left on device")

    # Single-record logs route through the shared batch append path.
    db.durability._writer.append_batch = broken_append
    with pytest.raises(DurabilityError, match="WAL append"):
        db.insert(["Carol"], "Sightings", ("s2", "Carol", "crow", "d", "l"))
    # The one unlogged op IS in memory — but it was never acknowledged...
    assert db.annotation_count() == 2
    # ...and every further write is refused *before* touching memory, even
    # with the disk "fixed", so the divergence never grows past that op.
    with pytest.raises(DurabilityError, match="failed-stop"):
        db.insert(["Carol"], "Sightings", ("s3", "Carol", "loon", "d", "l"))
    with pytest.raises(DurabilityError, match="failed-stop"):
        db.execute_sql(
            "insert into BELIEF ? Sightings values (?,?,?,?,?)",
            ("Carol", "s4", "Carol", "heron", "d", "l"),
        )
    with pytest.raises(DurabilityError, match="failed-stop"):
        db.add_user("Mallory")
    assert db.annotation_count() == 2  # refused writes never applied
    assert len(db.users()) == 1
    assert db.durability.failed
    with pytest.raises(DurabilityError, match="failed-stop"):
        db.checkpoint()  # a snapshot would persist the divergence
    db.close()

    # Restart recovers the consistent on-disk prefix: only the logged op.
    db2 = _durable(tmp_path)
    assert db2.annotation_count() == 1
    assert db2.believes(["Carol"], "Sightings", SIGHTING)
    db2.insert(["Carol"], "Sightings", ("s2", "Carol", "crow", "d", "l"))
    db2.close()


def test_replay_uses_prepared_statement_cache(tmp_path):
    """The bulk-restore fast path: one template, many bound executions."""
    db = _durable(tmp_path)
    db.add_user("Carol")
    for i in range(40):
        db.execute_sql(
            "insert into BELIEF ? Sightings values (?,?,?,?,?)",
            ("Carol", f"s{i}", "Carol", "crow", "6-14-08", "Lake Forest"),
        )
    db.close()

    db2 = _durable(tmp_path)
    cache = db2.snapshot_stats()["statement_cache"]
    # 40 execute records replayed through one cached template: the parse
    # and compile happened once, every later record was a cache hit.
    assert cache["hits"] >= 39
    assert db2.annotation_count() == 40
    db2.close()
