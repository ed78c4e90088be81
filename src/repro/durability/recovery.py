"""Replay WAL records into a BeliefDBMS.

The WAL is the one serial log of accepted writes (the order writers took
the write mutex). SQL writes are stored as *template + parameters*
(``{"op": "execute", "sql": "insert into BELIEF ? ...", "params": [...]}``)
rather than as bound literal SQL. Replay feeds them back through
:meth:`~repro.bdms.bdms.BeliefDBMS.execute_sql`, so the BDMS
prepared-statement LRU collapses every repetition of a template into one
parse + one compile — recovering a log costs ~as many parses as there are
*distinct statements*, not as many as there are records. That saves little:
2,000 records replayed in 0.394 s with the cache and 0.406 s without it
(about 3%, ~5k records/s either way), so replay time is spent outside
parse/compile.

The kinds written today are ``execute`` (every DML write, the programmatic
:meth:`~repro.bdms.bdms.BeliefDBMS.insert` / ``delete`` included),
``add_user``, ``lifecycle`` and the ``txn_begin`` / ``txn_commit`` framing.
An older WAL may also hold tuple-level ``insert`` / ``delete`` records;
replay still reads them, through those same two methods. Those methods now
bind each value as a ``?`` parameter, so such a record recovers unchanged
when every value binds (``str``, ``int``, finite ``float``). The older
methods logged values unchecked: a record holding one that does not bind
(a ``null``, a boolean, a non-finite float) stops recovery with a
:class:`~repro.errors.DurabilityError` naming its ``seq``.

Replay is strict: only *accepted* operations are ever logged, so a record
that fails to re-apply on the snapshot base means the log and snapshot
disagree — recovery raises rather than silently diverging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import BeliefDBError, DurabilityError


@dataclass
class ReplayStats:
    """What one recovery replay applied."""

    records: int = 0
    add_users: int = 0
    inserts: int = 0
    deletes: int = 0
    executes: int = 0
    lifecycle_ops: int = 0
    rows_affected: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


@dataclass
class RecoveryReport:
    """Everything a recovery did, JSON-serializable for stats/logging."""

    snapshot_seq: int = 0
    snapshot_statements: int = 0
    snapshots_skipped: int = 0
    wal_records: int = 0
    torn_tail_bytes: int = 0
    #: Records of an unterminated txn group discarded (and truncated) at
    #: the WAL tail — a crash mid-commit; none of them was acknowledged.
    uncommitted_txn_records: int = 0
    elapsed_ms: float = 0.0
    replay: ReplayStats = field(default_factory=ReplayStats)

    def as_dict(self) -> dict[str, Any]:
        out = dict(vars(self))
        out["replay"] = self.replay.as_dict()
        return out


def replay_records(
    db: Any, records: Iterable[dict[str, Any]]
) -> ReplayStats:
    """Re-apply WAL records serially; raises on any divergence.

    The caller (the durability manager) suppresses WAL logging on ``db``
    while this runs — replayed operations must not be re-logged.
    """
    stats = ReplayStats()
    for record in records:
        stats.records += 1
        op = record.get("op")
        seq = record.get("seq")
        try:
            if op == "add_user":
                db.add_user(name=record["name"], uid=record["uid"])
                stats.add_users += 1
            elif op in ("insert", "delete"):
                func = db.insert if op == "insert" else db.delete
                ok = func(
                    record["path"], record["relation"], record["values"],
                    record["sign"],
                )
                if not ok:
                    raise DurabilityError(f"logged {op} re-rejected")
                stats.inserts += op == "insert"
                stats.deletes += op == "delete"
            elif op == "execute":
                result = db.execute_sql(
                    record["sql"], tuple(record.get("params", ()))
                )
                if result.rowcount < 1:
                    raise DurabilityError(
                        "logged statement affected no rows on replay"
                    )
                stats.executes += 1
                stats.rows_affected += result.rowcount
            elif op == "lifecycle":
                # The record carries its own timestamps, and the registry's
                # apply path is deterministic — replay rebuilds the exact
                # audit history the live write produced.
                db.apply_lifecycle_record(record)
                stats.lifecycle_ops += 1
            else:
                raise DurabilityError(f"unknown WAL op {op!r}")
        except DurabilityError:
            raise DurabilityError(
                f"WAL replay diverged at seq {seq}: {record!r}"
            ) from None
        except BeliefDBError as exc:
            raise DurabilityError(
                f"WAL replay failed at seq {seq}: {exc}"
            ) from exc
    return stats
