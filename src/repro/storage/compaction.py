"""Compaction utilities for long-lived belief stores.

Two kinds of garbage accumulate under sustained updates:

* **orphan star rows** — ground tuples in ``star_Ri`` no longer referenced by
  any valuation row (deletes remove V rows but, like the paper, keep the
  tuple store append-only);
* **hollow states** — worlds created by ``idWorld`` whose explicit content
  has since been deleted. They are semantically transparent (a state with no
  explicit statements carries exactly its deepest suffix state's content —
  the identity behind Thm. 17's pruning), but they keep paying their ``D``,
  ``S``, ``E`` and mirrored-``V`` rows in ``|R*|``.

:func:`vacuum_star` drops orphans in place. :func:`compact` re-materializes
the store from its explicit statements — the safe way to shed hollow states,
since edge and backlink targets of surviving states all change together.
Both report precise statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.representation import materialize
from repro.storage.store import BeliefStore


@dataclass(frozen=True)
class VacuumStats:
    """Result of a star-table vacuum."""

    removed_tuples: int
    remaining_tuples: int


@dataclass(frozen=True)
class CompactionStats:
    """Result of a full compaction."""

    store: BeliefStore
    removed_states: int
    removed_rows: int
    rows_before: int
    rows_after: int

    @property
    def shrink_factor(self) -> float:
        if self.rows_after == 0:
            return float("inf")
        return self.rows_before / self.rows_after


def referenced_tids(store: BeliefStore) -> set[int]:
    """All tuple ids referenced by at least one valuation row."""
    tids: set[int] = set()
    for relation in store.schema.content_relations:
        for row in store.v_table(relation.name):
            tids.add(row[1])
    return tids


def vacuum_star(store: BeliefStore) -> VacuumStats:
    """Drop star rows (and registry entries) for unreferenced tuples."""
    keep = referenced_tids(store)
    removed = 0
    for relation in store.schema.content_relations:
        star = store.star_table(relation.name)
        doomed = [row[0] for row in star if row[0] not in keep]
        for tid in doomed:
            star.delete_matching({0: tid})
            store.forget_tid(tid)
            removed += 1
    if removed:
        # A lifecycle row may name a dropped tid; a re-insert gets a new one.
        store.lifecycle.bind(store)
    return VacuumStats(removed_tuples=removed, remaining_tuples=len(keep))


def hollow_states(store: BeliefStore) -> frozenset[tuple]:
    """States carrying no explicit annotation and shadowing no support path.

    These are exactly the states a batch re-materialization would not
    create: paths outside the prefix closure of the current support.
    """
    live = store.to_belief_database().states()
    return frozenset(path for path in store.states() if path not in live)


def compact(store: BeliefStore) -> CompactionStats:
    """Rebuild the store without hollow states or orphan tuples.

    Returns a *new* store (the input is left untouched — swapping a live
    store under concurrent readers is the caller's concern, as it would be
    for a real DBMS). Entailed worlds of all surviving paths are preserved;
    the incremental-vs-batch property tests guarantee it.
    """
    doomed = hollow_states(store)
    rows_before = store.total_rows()
    fresh = materialize(
        store.to_belief_database(),
        eager=store.eager,
        user_names=store.users(),
    )
    rows_after = fresh.total_rows()
    return CompactionStats(
        store=fresh,
        removed_states=len(doomed),
        removed_rows=rows_before - rows_after,
        rows_before=rows_before,
        rows_after=rows_after,
    )
