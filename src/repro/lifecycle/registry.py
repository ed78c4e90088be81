"""The lifecycle registry: records, the append-only audit log, provenance.

One :class:`LifecycleRegistry` lives on each :class:`~repro.storage.store.
BeliefStore`. All mutation goes through :meth:`apply`, which consumes exactly
the dict shape that rides the WAL (``{"op": "lifecycle", "action": ...}``) —
the live write path and crash recovery replay the *same* code over the *same*
record, so the audit history after a restart is bit-identical to the history
before the crash. Timestamps travel inside the record (stamped once by the
writer), never read from the clock during apply.

**Relations.** The records are canonical, keyed by belief key; a registry
bound to its store (:meth:`bind`) also keeps the store's two lifecycle
relations (:mod:`repro.storage.internal_schema`) equal to what they say, and
:meth:`apply` is their only writer: a propose inserts the record's
``lifecycle`` row and its ``derives`` rows, a transition replaces one row, a
sweep the rows whose confidence changed (one batch delete, one batch
insert). A row is keyed by the world and tuple ids of its statement, which
only its store knows — so :meth:`bind` rebuilds the relations for a store
whose ids may differ from the last one's (a new, restored or rolled-back
store). A record whose world or tuple the
store lacks (its statement was deleted before a rebuild that therefore did
not recreate them) has no row until the statement is inserted again
(:meth:`statement_inserted`); without its statement no ``WITH`` plan reads
it anyway.

``derives`` holds :meth:`derivation_tokens` of each record, minus its own
id. A token may name a belief id that is proposed *later* (a late parent):
``_waiting`` maps each such unresolved id to the beliefs whose closure holds
it, and proposing it adds its closure to theirs.

**Forks** (:meth:`fork`) copy nothing. The dicts are shared copy-on-write —
the owner copies one before mutating it only while a fork still holds it
(the table layer's rule, :meth:`repro.relational.table.Table._materialize`)
— and the audit list is shared outright: it is append-only and only the
live head appends (under the BDMS write mutex), so a fork just remembers the
length watermark at fork time and reads ``audit[:watermark]``. So is the
index beside it, each belief's event positions in ascending order: a fork
reads the positions below its watermark (one bisect), so a belief's history
costs its own events, not the whole log. The relations fork with the
store's other tables.
"""

from __future__ import annotations

import sys
import weakref
from bisect import bisect_left
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.errors import LifecycleConflictError, LifecycleError
from repro.lifecycle.model import (
    DECAYABLE,
    PROPOSED,
    TRANSITIONS,
    BeliefKey,
    LifecycleRecord,
    belief_id,
    belief_key,
    check_confidence,
    check_status,
    is_belief_id,
    parse_decay,
)

if TYPE_CHECKING:  # pragma: no cover — type-only import (avoids a cycle)
    from repro.storage.store import BeliefStore

#: The dicts a fork shares copy-on-write.
_SHARED = ("_records", "_by_id", "_waiting", "_unplaced")

#: An audit event's fields, by action, in the order the event keeps their
#: values: a tuple, half a dict's memory, whose ``path`` / ``values`` /
#: ``derived_from`` are the record's own tuples (lists once read).
_EVENT_FIELDS = {
    "propose": (
        "ts", "action", "belief", "actor", "to", "confidence", "path",
        "relation", "values", "sign", "derived_from", "seq",
    ),
    "transition": (
        "ts", "action", "belief", "actor", "from", "to", "reason", "path",
        "relation", "seq",
    ),
    "decay_sweep": ("ts", "action", "belief", "actor", "swept", "changed", "seq"),
}
_LISTED = frozenset(("path", "values", "derived_from"))


def _event_view(event: tuple) -> dict[str, Any]:
    """An audit event as readers (and snapshots) see it."""
    return {
        name: list(value) if name in _LISTED else value
        for name, value in zip(_EVENT_FIELDS[event[1]], event)
    }


def _event_kept(view: dict[str, Any]) -> tuple:
    """An event of a snapshot, as the registry keeps it."""
    return tuple(
        tuple(view[name]) if name in _LISTED else view[name]
        for name in _EVENT_FIELDS[view["action"]]
    )


def _row(slot: tuple[int, int], record: LifecycleRecord) -> tuple:
    """``record``'s ``lifecycle`` row, its statement at ``(wid, tid)``."""
    wid, tid = slot
    sign = record.key[3]
    return (wid, tid, sign, record.belief_id, record.status, record.confidence)


class LifecycleRegistry:
    """Lifecycle records + audit log for one belief store (or fork)."""

    def __init__(self) -> None:
        self._records: dict[BeliefKey, LifecycleRecord] = {}
        self._by_id: dict[str, BeliefKey] = {}
        #: Unresolved belief-id token -> the beliefs whose closure holds it.
        self._waiting: dict[str, frozenset[str]] = {}
        #: Records without rows: their statement's world or tuple is missing.
        self._unplaced: dict[BeliefKey, None] = {}
        self._shared = False
        self._store: "weakref.ref[BeliefStore] | None" = None
        # Shared append-only audit history; _audit_len is this view's bound.
        self._audit: list[tuple] = []
        self._audit_len = 0
        #: Belief id -> its events' positions in ``_audit``, ascending
        #: (shared and append-only too).
        self._audit_at: dict[str, list[int]] = {}
        self._next_audit_seq = 1

    # ------------------------------------------------------------------ forks

    def fork(self, store: "BeliefStore | None" = None) -> "LifecycleRegistry":
        """A copy-on-write view of this registry, bound to ``store`` — a
        fork of this registry's store, whose relations are forks of ours."""
        fork = LifecycleRegistry.__new__(LifecycleRegistry)
        for name in _SHARED:
            setattr(fork, name, getattr(self, name))
        fork._shared = self._shared = True
        fork._store = weakref.ref(store) if store is not None else None
        fork._audit = self._audit  # shared; bounded by the watermark below
        fork._audit_at = self._audit_at
        fork._audit_len = self._audit_len
        fork._next_audit_seq = self._next_audit_seq
        return fork

    def _own(self) -> None:
        """Before a mutation: copy each shared dict a fork still holds."""
        if not self._shared:
            return
        self._shared = False
        for name in _SHARED:
            held = getattr(self, name)
            # Ours are three: the attribute, ``held`` and the call's argument.
            if sys.getrefcount(held) > 3:
                setattr(self, name, dict(held))

    # -------------------------------------------------------------- relations

    def bind(self, store: "BeliefStore") -> None:
        """Rebuild ``store``'s lifecycle relations from the records and keep
        them from now on; for a store whose world and tuple ids may not be
        the ones rows were last written with."""
        self._store = weakref.ref(store)
        records, derives = store.lifecycle_relations()
        records.clear()
        derives.clear()
        # Fresh dicts: a fork keeps the ones it shares with us.
        self._waiting = {}
        self._unplaced = {}
        for record in self._records.values():
            closure = self.derivation_tokens(record)
            self._wait_on(record.belief_id, closure)
            self._place(store, record, closure)

    def statement_inserted(self, path: tuple, t: Any, sign: str) -> None:
        """Explicit statement ``path t^sign`` entered the store: its record,
        if it was waiting for a world and a tuple id, gets its rows."""
        if not self._unplaced:
            return
        key = (tuple(path), t.relation, t.values, sign)
        if key in self._unplaced:
            store = self._bound()
            record = self._records[key]
            self._own()
            del self._unplaced[key]
            self._place(store, record, self.derivation_tokens(record))

    def _bound(self) -> "BeliefStore | None":
        return self._store() if self._store is not None else None

    def _place(
        self, store: "BeliefStore", record: LifecycleRecord, closure: frozenset
    ) -> None:
        """Insert ``record``'s rows, or remember it as unplaced."""
        slot = store.statement_slot(record.key)
        if slot is None:
            self._unplaced[record.key] = None
            return
        wid, tid = slot
        sign = record.key[3]
        records, derives = store.lifecycle_relations()
        records.insert(_row(slot, record))
        for token in closure:
            if token != record.belief_id:
                derives.insert((wid, token, tid, sign))

    def _replace_row(self, record: LifecycleRecord) -> None:
        """``record``'s status or confidence changed: so does its row."""
        store = self._bound()
        if store is None or record.key in self._unplaced:
            return
        row = _row(store.statement_slot(record.key), record)
        records, _ = store.lifecycle_relations()
        records.delete_key(row[:3])
        records.insert(row)

    def _wait_on(self, belief: str, closure: Iterable[Any]) -> None:
        """``belief``'s closure holds ``closure``: note its unresolved ids."""
        for token in closure:
            if is_belief_id(token) and token not in self._by_id:
                waiting = self._waiting.get(token, frozenset())
                self._waiting[token] = waiting | {belief}

    def _extend(
        self, store: "BeliefStore", belief: str, closure: frozenset
    ) -> None:
        """A late parent of ``belief`` was proposed: its closure joins
        ``belief``'s (it already held the parent's id)."""
        self._wait_on(belief, closure)
        record = self.get(belief)
        if record is None or record.key in self._unplaced:
            return
        wid, tid = store.statement_slot(record.key)
        sign = record.key[3]
        _, derives = store.lifecycle_relations()
        for token in closure:
            row = (wid, token, tid, sign)
            if token != belief and not derives.contains_row(row):
                derives.insert(row)

    # ------------------------------------------------------------------ reads

    def record_count(self) -> int:
        return len(self._records)

    def audit_count(self) -> int:
        return self._audit_len

    def get(self, belief: Any) -> LifecycleRecord | None:
        """Look up by belief id (``b...``) or by canonical key."""
        if isinstance(belief, str):
            key = self._by_id.get(belief)
            if key is None:
                return None
            return self._records.get(key)
        if isinstance(belief, tuple):
            return self._records.get(belief)
        return None

    def require(self, belief: Any) -> LifecycleRecord:
        record = self.get(belief)
        if record is None:
            raise LifecycleError(f"no lifecycle record for belief {belief!r}")
        return record

    def records(self) -> list[LifecycleRecord]:
        """All records, oldest first (ties broken by id for determinism)."""
        return sorted(
            self._records.values(), key=lambda r: (r.created_ts, r.belief_id)
        )

    def audit_events(
        self, belief: str | None = None, limit: int | None = None
    ) -> list[dict[str, Any]]:
        """Audit history (oldest first), optionally for one belief id."""
        end = self._audit_len
        if belief is None:
            positions: Sequence[int] = range(end)
        else:
            positions = self._audit_at.get(belief, ())
            positions = positions[: bisect_left(positions, end)]
        if limit is not None and limit >= 0:
            positions = positions[max(0, len(positions) - limit):]
        audit = self._audit
        return [_event_view(audit[at]) for at in positions]

    # -------------------------------------------------------------- provenance

    def derivation_tokens(self, record: LifecycleRecord) -> frozenset[Any]:
        """Transitive provenance closure of a record.

        The closure contains, for the record and every ancestor reachable
        through ``derived_from`` links: the belief id, the proposing actor,
        and every raw ``derived_from`` token (user names/uids stay as
        opaque tokens). This is what ``DERIVED FROM x`` matches against —
        "derived from user X" and "derived from belief b…" both work.
        """
        tokens: set[Any] = set()
        frontier = [record]
        seen_ids = {record.belief_id}
        while frontier:
            current = frontier.pop()
            tokens.add(current.belief_id)
            tokens.add(current.actor)
            for token in current.derived_from:
                tokens.add(token)
                parent = self.get(token) if isinstance(token, str) else None
                if parent is not None and parent.belief_id not in seen_ids:
                    seen_ids.add(parent.belief_id)
                    frontier.append(parent)
        return frozenset(tokens)

    def provenance(self, belief: Any) -> dict[str, Any]:
        """The derivation chain of one belief as a JSON-friendly tree walk."""
        record = self.require(belief)
        chain: list[dict[str, Any]] = []
        frontier = [record.belief_id]
        seen: set[str] = set()
        while frontier:
            bid = frontier.pop(0)
            if bid in seen:
                continue
            seen.add(bid)
            node = self.get(bid)
            if node is None:
                continue
            parents = []
            for token in node.derived_from:
                parent = self.get(token) if isinstance(token, str) else None
                if parent is not None:
                    parents.append(parent.belief_id)
                    frontier.append(parent.belief_id)
                else:
                    parents.append(token)
            chain.append(
                {
                    "belief": node.belief_id,
                    "status": node.status,
                    "confidence": node.confidence,
                    "actor": node.actor,
                    "relation": node.key[1],
                    "values": list(node.key[2]),
                    "path": list(node.key[0]),
                    "derived_from": parents,
                }
            )
        return {"belief": record.belief_id, "chain": chain}

    # ------------------------------------------------------------------ apply

    def apply(self, record: dict[str, Any]) -> dict[str, Any]:
        """Apply one lifecycle WAL record; returns the op's result view.

        This is the single mutation entry point, shared by the live write
        path and recovery replay. It must stay deterministic: everything it
        needs (including timestamps) is inside ``record``.
        """
        action = record.get("action")
        if action == "propose":
            return self._apply_propose(record)
        if action == "transition":
            return self._apply_transition(record)
        if action == "decay_sweep":
            return self._apply_decay_sweep(record)
        raise LifecycleError(f"unknown lifecycle action {action!r}")

    def _audit_append(self, *values: Any) -> None:
        """Append one event: its ``_EVENT_FIELDS`` values but the ``seq``."""
        if values[2] is not None:  # a decay sweep names no belief
            self._audit_at.setdefault(values[2], []).append(len(self._audit))
        self._audit.append((*values, self._next_audit_seq))
        self._next_audit_seq += 1
        self._audit_len += 1

    def _apply_propose(self, record: dict[str, Any]) -> dict[str, Any]:
        key = belief_key(
            record["path"], record["relation"], record["values"], record["sign"]
        )
        if key in self._records:
            raise LifecycleError(
                f"belief {belief_id(key)} already has a lifecycle record"
            )
        confidence = check_confidence(record.get("confidence", 1.0))
        decay = record.get("decay", "none")
        parse_decay(decay)  # validate the spec up front
        ts = float(record["ts"])
        entry = LifecycleRecord(
            belief_id=belief_id(key),
            key=key,
            status=PROPOSED,
            confidence=confidence,
            actor=record.get("actor"),
            decay=decay,
            derived_from=tuple(record.get("derived_from", ())),
            created_ts=ts,
            updated_ts=ts,
        )
        self._own()
        self._records[key] = entry
        self._by_id[entry.belief_id] = key
        store = self._bound()
        if store is not None:
            closure = self.derivation_tokens(entry)
            self._wait_on(entry.belief_id, closure)
            self._place(store, entry, closure)
            for child in self._waiting.pop(entry.belief_id, ()):
                self._extend(store, child, closure)
        self._audit_append(
            ts, "propose", entry.belief_id, entry.actor, PROPOSED, confidence,
            *key, entry.derived_from,
        )
        return entry.view()

    def _apply_transition(self, record: dict[str, Any]) -> dict[str, Any]:
        entry = self.require(record["belief"])
        to = check_status(record["to"])
        expect = record.get("expect")
        if expect is not None:
            check_status(expect)
            if entry.status != expect:
                raise LifecycleConflictError(
                    f"belief {entry.belief_id} is {entry.status}, "
                    f"not {expect} — another curator got there first"
                )
        if to not in TRANSITIONS[entry.status]:
            allowed = ", ".join(sorted(TRANSITIONS[entry.status])) or "nothing"
            raise LifecycleConflictError(
                f"belief {entry.belief_id} cannot go {entry.status} -> {to} "
                f"(allowed from {entry.status}: {allowed})"
            )
        ts = float(record["ts"])
        updated = entry.with_status(to, ts)
        self._own()
        self._records[entry.key] = updated
        self._replace_row(updated)
        self._audit_append(
            ts, "transition", entry.belief_id, record.get("actor"), entry.status,
            to, record.get("reason"), entry.key[0], entry.key[1],
        )
        return updated.view()

    def _apply_decay_sweep(self, record: dict[str, Any]) -> dict[str, Any]:
        now = float(record["ts"])
        swept = 0
        changed = 0
        store = self._bound()
        rows = []  # the new rows of the changed records that have one
        # Deterministic iteration order: sorted by belief id.
        for bid in sorted(self._by_id):
            key = self._by_id[bid]
            entry = self._records[key]
            if entry.decay == "none" or entry.status not in DECAYABLE:
                continue
            swept += 1
            fn = parse_decay(entry.decay)
            decayed = fn(entry.confidence, now - entry.updated_ts)
            if abs(decayed - entry.confidence) > 1e-12:
                changed += 1
                updated = entry.with_confidence(decayed, now)
                self._own()
                self._records[key] = updated
                if store is not None and key not in self._unplaced:
                    rows.append(_row(store.statement_slot(key), updated))
        if store is not None:
            records, _ = store.lifecycle_relations()
            records.delete_keys([row[:3] for row in rows])
            records.insert_many(rows)
        self._audit_append(
            now, "decay_sweep", None, record.get("actor"), swept, changed
        )
        return {"swept": swept, "changed": changed}

    # -------------------------------------------------------------- snapshots

    def dump(self) -> dict[str, Any]:
        """Snapshot payload: records + the audit history visible here."""
        return {
            "records": [r.view() for r in self.records()],
            "audit": [_event_view(e) for e in self._audit[: self._audit_len]],
            "next_audit_seq": self._next_audit_seq,
        }

    @classmethod
    def from_dump(cls, payload: dict[str, Any]) -> "LifecycleRegistry":
        registry = cls()
        for view in payload.get("records", ()):
            record = LifecycleRecord.from_view(view)
            registry._records[record.key] = record
            registry._by_id[record.belief_id] = record.key
        registry._audit = [_event_kept(e) for e in payload.get("audit", ())]
        registry._audit_len = len(registry._audit)
        for at, event in enumerate(registry._audit):
            if event[2] is not None:
                registry._audit_at.setdefault(event[2], []).append(at)
        registry._next_audit_seq = int(
            payload.get("next_audit_seq", registry._audit_len + 1)
        )
        return registry
