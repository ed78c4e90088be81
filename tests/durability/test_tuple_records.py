"""Tuple writes in the WAL: ``BeliefDBMS.insert`` / ``delete`` log
``execute`` records, and an older WAL's tuple-level ``insert`` / ``delete``
records still recover when their values bind as ``?`` parameters.

Both logs must recover to what the same writes leave live: the same
explicit statements and the same Def. 14 answers to the Table 2 queries.
"""

from __future__ import annotations

import pytest

from repro.bdms.bdms import BeliefDBMS
from repro.bench.queries import Q3_LOCATION, paper_queries
from repro.core.schema import experiment_schema
from repro.durability import DurabilityManager, wal
from repro.errors import DurabilityError
from repro.query.naive import evaluate_naive
from tests.wal_oracle import recovered_from_wal, wal_records

NAMES = ("Ann", "Ben", "Cid")

WRITES = [
    ("insert", [1], ("s1", 1, "crow", "d1", Q3_LOCATION), "+"),
    ("insert", [2], ("s1", 1, "crow", "d1", Q3_LOCATION), "-"),
    ("insert", [2, 1], ("s2", 1, "raven", "d2", "Lake Forest"), "+"),
    ("insert", [], ("s3", 3, "owl", "d3", "Union Bay"), "+"),
    ("insert", [2], ("s3", 3, "owl", "d3", "Union Bay"), "-"),
    ("insert", [1], ("s4", 1, "hawk", "d4", 2.5), "+"),
    ("delete", [1], ("s4", 1, "hawk", "d4", 2.5), "+"),
    ("insert", [3, 2], ("s2", 1, "raven", "d2", "Lake Forest"), "-"),
    ("delete", [2], ("s3", 3, "owl", "d3", "Union Bay"), "-"),
]


def _write(db: BeliefDBMS) -> BeliefDBMS:
    for name in NAMES:
        db.add_user(name)
    for verb, path, values, sign in WRITES:
        assert getattr(db, verb)(path, "Sightings", values, sign)
    return db


def _state(db: BeliefDBMS) -> tuple:
    store = db.store
    queries = paper_queries(max_depth=3)
    return (
        sorted(map(str, store.explicit_statements())),
        {
            name: evaluate_naive(store.explicit_db, q, users=store.users())
            for name, q in queries.items()
        },
        {name: db.query(q) for name, q in queries.items()},
    )


def _older_wal(data_dir, writes) -> None:
    """Write a WAL segment of the users and the tuple-level records an
    older version logged for ``writes``."""
    records = [
        {"op": "add_user", "uid": uid, "name": name}
        for uid, name in enumerate(NAMES, 1)
    ]
    records += [
        {
            "op": verb, "path": path, "relation": "Sightings",
            "values": list(values), "sign": sign,
        }
        for verb, path, values, sign in writes
    ]
    wal_dir = data_dir / "wal"
    wal_dir.mkdir(parents=True)
    (wal_dir / wal.segment_name(1)).write_bytes(b"".join(
        wal.encode_record({"seq": seq, **record})
        for seq, record in enumerate(records, 1)
    ))


def test_an_older_wal_of_tuple_records_recovers(tmp_path):
    _older_wal(tmp_path / "data", WRITES)

    recovered = BeliefDBMS(
        experiment_schema(),
        durability=DurabilityManager(str(tmp_path / "data")),
    )
    replay = recovered.durability.last_recovery.replay
    assert (replay.inserts, replay.deletes) == (7, 2)
    assert _state(recovered) == _state(_write(BeliefDBMS(experiment_schema())))
    recovered.close()


def test_an_older_tuple_record_that_does_not_bind_stops_recovery(tmp_path):
    # The older insert logged its values unchecked; a null cannot bind as
    # ``?``, so replay stops at that record's seq instead of diverging.
    unbound = ("insert", [1], ("s5", 1, None, "d5", "Union Bay"), "+")
    _older_wal(tmp_path / "data", [*WRITES[:2], unbound])
    seq = len(NAMES) + 3
    with pytest.raises(DurabilityError, match=f"WAL replay failed at seq {seq}:"):
        BeliefDBMS(
            experiment_schema(),
            durability=DurabilityManager(str(tmp_path / "data")),
        )


def test_tuple_writes_log_only_execute_records(tmp_path):
    db = _write(BeliefDBMS(
        experiment_schema(),
        durability=DurabilityManager(str(tmp_path / "data")),
    ))
    records = wal_records(db)
    assert [r["op"] for r in records] == (
        ["add_user"] * len(NAMES) + ["execute"] * len(WRITES)
    )
    assert records[-1] == {
        "seq": len(records), "op": "execute",
        "sql": "delete from BELIEF ? not Sightings values (?, ?, ?, ?, ?)",
        "params": [2, "s3", 3, "owl", "d3", "Union Bay"],
    }
    with recovered_from_wal(db) as recovered:
        assert _state(recovered) == _state(db)
