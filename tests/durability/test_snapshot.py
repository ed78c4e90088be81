"""Snapshot write/load/restore: atomicity, fallback, and state fidelity."""

from __future__ import annotations

import json
import os

import pytest

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import experiment_schema, sightings_schema
from repro.durability import snapshot as snap
from repro.errors import DurabilityError
from repro.workload.generator import WorkloadConfig, populate_store


def _curated_db() -> BeliefDBMS:
    """A BDMS with users, nested beliefs, and negative annotations."""
    db = BeliefDBMS(sightings_schema(), strict=False)
    db.add_user("Carol")
    db.add_user("Bob")
    db.add_user("Alice")
    db.insert(["Carol"], "Sightings",
              ("s1", "Carol", "bald eagle", "6-14-08", "Lake Forest"))
    db.insert(["Bob"], "Sightings",
              ("s1", "Carol", "bald eagle", "6-14-08", "Lake Forest"), sign="-")
    db.insert(["Bob", "Carol"], "Sightings",
              ("s2", "Bob", "crow", "6-15-08", "Union Bay"))
    db.insert(["Alice"], "Sightings",
              ("s3", "Alice", "osprey", "6-16-08", "Mount Si"))
    db.insert([], "Comments", ("s1", "1", "confirmed at the north shore"))
    return db


def _explicit(db: BeliefDBMS) -> list[str]:
    return sorted(str(s) for s in db.store.explicit_statements())


def test_snapshot_round_trip(tmp_path):
    db = _curated_db()
    path = snap.write_snapshot(str(tmp_path), db, seq=42)
    assert os.path.basename(path) == snap.snapshot_name(42)

    loaded, skipped = snap.load_latest_snapshot(str(tmp_path))
    assert skipped == 0 and loaded is not None
    assert loaded["seq"] == 42

    restored = BeliefDBMS(sightings_schema(), strict=False)
    applied = snap.restore_snapshot(restored, loaded)
    assert applied == db.annotation_count()
    assert _explicit(restored) == _explicit(db)
    assert restored.users() == db.users()
    assert restored.size() == db.size()
    # The eager materialization is recomputed identically, worlds included.
    for path_key in sorted(db.store.states(), key=lambda p: (len(p), repr(p))):
        assert (restored.store.entailed_world(path_key)
                == db.store.entailed_world(path_key))
    restored.store.check_invariants()


def test_snapshot_round_trip_generated_workload(tmp_path):
    db = BeliefDBMS(experiment_schema(), strict=False)
    populate_store(db.store, WorkloadConfig(
        n_annotations=120, n_users=8, participation="zipf", seed=3,
    ))
    snap.write_snapshot(str(tmp_path), db, seq=1)
    loaded, _ = snap.load_latest_snapshot(str(tmp_path))
    restored = BeliefDBMS(experiment_schema(), strict=False)
    snap.restore_snapshot(restored, loaded)
    assert _explicit(restored) == _explicit(db)
    assert restored.size() == db.size()


def test_restore_requires_empty_database(tmp_path):
    db = _curated_db()
    snap.write_snapshot(str(tmp_path), db, seq=1)
    payload, _ = snap.load_latest_snapshot(str(tmp_path))
    with pytest.raises(DurabilityError):
        snap.restore_snapshot(db, payload)  # db is not empty


def test_damaged_latest_snapshot_falls_back_to_older(tmp_path):
    db = _curated_db()
    snap.write_snapshot(str(tmp_path), db, seq=10)
    db.insert(["Carol"], "Sightings",
              ("s9", "Carol", "raven", "7-01-08", "Cedar River"))
    newest = snap.write_snapshot(str(tmp_path), db, seq=20)

    with open(newest, "w") as handle:
        handle.write('{"format": 1, "seq"')  # torn mid-write

    loaded, skipped = snap.load_latest_snapshot(str(tmp_path))
    assert skipped == 1
    assert loaded is not None and loaded["seq"] == 10


def test_wrong_format_snapshot_skipped(tmp_path):
    path = tmp_path / snap.snapshot_name(5)
    path.write_text(json.dumps({"format": 99, "seq": 5}))
    loaded, skipped = snap.load_latest_snapshot(str(tmp_path))
    assert loaded is None and skipped == 1


def test_no_tmp_file_left_behind(tmp_path):
    snap.write_snapshot(str(tmp_path), _curated_db(), seq=7)
    assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []


def test_prune_keeps_newest(tmp_path):
    db = _curated_db()
    for seq in (1, 2, 3, 4):
        snap.write_snapshot(str(tmp_path), db, seq=seq)
    removed = snap.prune_snapshots(str(tmp_path), keep=2)
    assert removed == 2
    assert [seq for seq, _ in snap.list_snapshots(str(tmp_path))] == [3, 4]


def test_restore_rejects_tampered_counts(tmp_path):
    snap.write_snapshot(str(tmp_path), _curated_db(), seq=1)
    payload, _ = snap.load_latest_snapshot(str(tmp_path))
    payload["counts"]["annotations"] += 1
    restored = BeliefDBMS(sightings_schema(), strict=False)
    with pytest.raises(DurabilityError):
        snap.restore_snapshot(restored, payload)


def _payload_in_one_piece(db: BeliefDBMS, seq: int) -> dict:
    """The snapshot object built whole: every statement in one sorted list."""
    statements = sorted(
        db.store.explicit_db.statements(), key=snap.statement_order
    )
    payload = {
        "format": snap.SNAPSHOT_FORMAT,
        "seq": seq,
        "users": sorted(
            ([uid, name] for uid, name in db.users().items()),
            key=lambda pair: repr(pair[0]),
        ),
        "statements": [
            {
                "path": list(s.path),
                "relation": s.tuple.relation,
                "values": list(s.tuple.values),
                "sign": str(s.sign),
            }
            for s in statements
        ],
        "counts": {
            "annotations": db.annotation_count(),
            "users": len(db.users()),
        },
    }
    lifecycle = db.store.lifecycle
    if lifecycle.record_count() or lifecycle.audit_count():
        payload["lifecycle"] = lifecycle.dump()
    return payload


@pytest.mark.parametrize("tracked", [False, True])
def test_streamed_snapshot_matches_the_whole_payload_byte_for_byte(
    tmp_path, tracked
):
    db = BeliefDBMS(experiment_schema(), strict=False)
    populate_store(db.store, WorkloadConfig(
        n_annotations=150, n_users=6, participation="zipf", seed=11,
    ))
    if tracked:
        statement = sorted(db.store.explicit_db.statements(), key=str)[0]
        db.lifecycle_propose(
            list(statement.path), statement.tuple.relation,
            statement.tuple.values, sign=str(statement.sign), ts=1.0,
        )
    path = snap.write_snapshot(str(tmp_path), db, seq=5)
    with open(path, "rb") as source:
        written = source.read()
    expected = json.dumps(_payload_in_one_piece(db, 5), separators=(",", ":"))
    assert written == expected.encode("utf-8")
    assert ('"lifecycle"' in expected) is tracked
