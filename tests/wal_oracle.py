"""The serial-order oracle: recover a served database from its own WAL.

The linearizability argument (``docs/concurrency.md``): every accepted
write is appended to the WAL while its writer still holds the write mutex,
so WAL order *is* the serialization order. A concurrent run is therefore
correct iff a fresh database recovered from that WAL — by the replayer
that runs after a real crash, which raises on any record that fails to
re-apply — equals the live one: same explicit statements, same users, same
entailed worlds.
"""

from __future__ import annotations

import contextlib
import os
from typing import Any, Iterator

from repro.bdms.bdms import BeliefDBMS
from repro.durability import DurabilityManager
from repro.durability import wal


def durable_db(schema: Any, data_dir: Any, **kwargs: Any) -> BeliefDBMS:
    """A non-strict database logging to (or recovered from) ``data_dir``."""
    kwargs.setdefault("strict", False)
    return BeliefDBMS(
        schema, durability=DurabilityManager(str(data_dir)), **kwargs
    )


def wal_records(db: BeliefDBMS) -> list[dict[str, Any]]:
    """Every record in ``db``'s WAL, in log order (txn framing included)."""
    db.durability.flush()
    records: list[dict[str, Any]] = []
    for _, path in wal.list_segments(db.durability.wal_dir):
        scan = wal.scan_segment(path)
        assert scan.clean, scan.error
        records.extend(scan.records)
    return records


def explicit_state(db: BeliefDBMS) -> list[str]:
    return sorted(str(s) for s in db.store.explicit_statements())


@contextlib.contextmanager
def recovered_from_wal(db: BeliefDBMS, **kwargs: Any) -> Iterator[BeliefDBMS]:
    """Close ``db``'s durability (its in-memory state stays readable),
    recover a fresh database from the same directory, assert it equals the
    live one, and yield it for further assertions."""
    data_dir = db.durability.data_dir
    assert not os.listdir(db.durability.snapshot_dir), (
        "a snapshot would hide the WAL prefix from the replayer"
    )
    db.close()
    recovered = durable_db(db.schema, data_dir, **kwargs)
    try:
        assert recovered.durability.last_recovery.snapshot_seq == 0
        assert explicit_state(recovered) == explicit_state(db)
        assert recovered.users() == db.users()
        assert recovered.annotation_count() == db.annotation_count()
        assert recovered.size() == db.size()
        paths = sorted(db.store.states(), key=lambda p: (len(p), repr(p)))
        assert sorted(recovered.store.states(),
                      key=lambda p: (len(p), repr(p))) == paths
        for path in paths:
            assert (
                recovered.store.entailed_world(path)
                == db.store.entailed_world(path)
            ), path
        assert recovered.audit_log() == db.audit_log()
        yield recovered
    finally:
        recovered.close()
