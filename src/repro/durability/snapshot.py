"""Point-in-time snapshots of BeliefDBMS state.

A snapshot is one JSON file — ``snapshot-<seq>.json`` — holding everything
needed to rebuild the belief database without replaying history: the user
registry and the *explicit* belief statements (the paper's annotations; the
eager materialization is deterministically recomputed by re-inserting them
through Algorithm 4). ``seq`` is the WAL sequence number the snapshot
covers: recovery loads the newest readable snapshot and replays only WAL
records with a higher ``seq``.

Snapshots are written atomically (temp file + ``os.replace`` + directory
fsync), so a crash mid-checkpoint leaves the previous snapshot intact, and
:func:`load_latest_snapshot` falls back to older files when the newest one
is unreadable.
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Iterator

from repro.core.statements import BeliefStatement, Sign
from repro.errors import BeliefDBError, DurabilityError
from repro.lifecycle.registry import LifecycleRegistry
from repro.storage.updates import insert_statement

from repro.durability.wal import fsync_directory

SNAPSHOT_FORMAT = 1

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{12})\.json$")


def snapshot_name(seq: int) -> str:
    return f"snapshot-{seq:012d}.json"


def list_snapshots(directory: str) -> list[tuple[int, str]]:
    """``(seq, absolute_path)`` for every snapshot file, oldest first."""
    found: list[tuple[int, str]] = []
    for entry in os.listdir(directory):
        match = _SNAPSHOT_RE.match(entry)
        if match:
            found.append((int(match.group(1)), os.path.join(directory, entry)))
    return sorted(found)


def statement_order(statement: Any) -> tuple:
    """Sort key for rebuilding explicit statements shallowest-path-first.

    Shared by the snapshot writer (which sorts one path at a time to the
    same order) and the transaction rollback rebuild
    (:meth:`BeliefDBMS._rollback_rebuild`), so the two deterministic
    rebuild paths can never diverge in ordering.
    """
    return (
        len(statement.path), repr(statement.path),
        repr(statement.tuple), str(statement.sign),
    )


_COMPACT = (",", ":")


def _dumps(value: Any) -> str:
    return json.dumps(value, separators=_COMPACT)


def _statement_entries(db: Any) -> Iterator[dict[str, Any]]:
    """The explicit statements in :func:`statement_order`, one at a time:
    the states sorted by ``(len, repr)``, then one state's ``e='y'`` V rows
    (one scan of V in all, O(``|R*|``))."""
    store = db.store
    for path in sorted(store.states(), key=lambda p: (len(p), repr(p))):
        signs = sorted(
            store.explicit_signs(path),
            key=lambda pair: (repr(pair[0]), str(pair[1])),
        )
        for t, sign in signs:
            yield {
                "path": list(path),
                "relation": t.relation,
                "values": list(t.values),
                "sign": str(sign),
            }


def write_snapshot(directory: str, db: Any, seq: int) -> str:
    """Atomically persist a BDMS's users + explicit statements as of WAL
    ``seq``; returns the file's final path.

    The file is one JSON object: ``format``, ``seq``, ``users``,
    ``statements``, ``counts``, and ``lifecycle`` (the registry's records
    + full audit history) when anything is tracked; snapshots from before
    the lifecycle subsystem simply lack that key and restore fine. The
    statements are written one at a time, so the transient is one path's
    statements rather than the whole list.
    """
    head = {
        "format": SNAPSHOT_FORMAT,
        "seq": seq,
        "users": sorted(
            ([uid, name] for uid, name in db.users().items()),
            key=lambda pair: repr(pair[0]),
        ),
    }
    tail: dict[str, Any] = {
        "counts": {
            "annotations": db.annotation_count(),
            "users": len(db.users()),
        },
    }
    lifecycle = db.store.lifecycle
    if lifecycle.record_count() or lifecycle.audit_count():
        tail["lifecycle"] = lifecycle.dump()
    final = os.path.join(directory, snapshot_name(seq))
    tmp = final + ".tmp"
    with open(tmp, "w", encoding="utf-8") as sink:
        sink.write(_dumps(head)[:-1] + ',"statements":[')
        separator = ""
        for entry in _statement_entries(db):
            sink.write(separator + _dumps(entry))
            separator = ","
        sink.write("]," + _dumps(tail)[1:])
        sink.flush()
        os.fsync(sink.fileno())
    os.replace(tmp, final)
    fsync_directory(directory)
    return final


def load_latest_snapshot(
    directory: str,
) -> tuple[dict[str, Any] | None, int]:
    """The newest readable snapshot payload and how many were skipped.

    Damaged files (truncated JSON, wrong format) are skipped in favor of the
    next-older snapshot — the atomic write makes damage unlikely, but a
    snapshot must never be a single point of failure for recovery.
    """
    skipped = 0
    for seq, path in reversed(list_snapshots(directory)):
        try:
            with open(path, "r", encoding="utf-8") as source:
                payload = json.load(source)
            if (
                not isinstance(payload, dict)
                or payload.get("format") != SNAPSHOT_FORMAT
                or int(payload["seq"]) != seq
            ):
                raise ValueError("format/seq mismatch")
        except (OSError, ValueError, KeyError, TypeError):
            skipped += 1
            continue
        return payload, skipped
    return None, skipped


def restore_snapshot(db: Any, payload: dict[str, Any]) -> int:
    """Load a snapshot into an *empty* BDMS; returns statements applied.

    Statements are re-inserted shallowest-path-first through the store's
    Algorithm 4, which deterministically rebuilds the eager materialization.
    Every statement of a snapshot taken from a consistent store must be
    re-accepted; a rejection means the snapshot is damaged.
    """
    if db.users() or db.annotation_count():
        raise DurabilityError(
            "snapshot restore requires an empty database "
            f"(found {len(db.users())} users, "
            f"{db.annotation_count()} annotations)"
        )
    for uid, name in payload.get("users", ()):
        db.store.add_user(name=name, uid=uid)
    applied = 0
    for entry in payload.get("statements", ()):
        statement = BeliefStatement(
            tuple(entry["path"]),
            db.schema.tuple(entry["relation"], *entry["values"]),
            Sign.coerce(entry["sign"]),
        )
        if not insert_statement(db.store, statement):
            raise DurabilityError(
                f"snapshot statement rejected on restore: {statement}"
            )
        applied += 1
    counts = payload.get("counts", {})
    if "annotations" in counts and db.annotation_count() != counts["annotations"]:
        raise DurabilityError(
            f"snapshot restore produced {db.annotation_count()} annotations, "
            f"snapshot recorded {counts['annotations']}"
        )
    lifecycle = payload.get("lifecycle")
    if lifecycle is not None:
        try:
            db.store.lifecycle = LifecycleRegistry.from_dump(lifecycle)
        except (BeliefDBError, KeyError, TypeError, ValueError) as exc:
            raise DurabilityError(
                f"snapshot lifecycle section is damaged: {exc}"
            ) from exc
    db.invalidate_statements()
    return applied


def prune_snapshots(directory: str, keep: int) -> int:
    """Delete all but the newest ``keep`` snapshots; returns removed count."""
    snapshots = list_snapshots(directory)
    removed = 0
    for _, path in snapshots[: max(0, len(snapshots) - max(1, keep))]:
        try:
            os.remove(path)
            removed += 1
        except OSError:
            pass
    return removed
