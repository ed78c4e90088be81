"""Belief worlds ``W = (I+, I−)`` and their semantics (Sect. 3.1).

A belief world represents the set of *consistent* conventional instances that
contain all of ``I+`` and none of ``I−`` (Def. 3):

    ``[[W]] = {I | I+ ⊆ I, I ∩ I− = ∅, Γ(I)}``

Consistency of a world is ``[[W]] ≠ ∅`` (Def. 4), characterized by Prop. 5 as
``Γ1`` (key constraints on ``I+``) plus ``Γ2`` (``I+ ∩ I− = ∅``). Positive and
negative beliefs (Def. 6) are characterized by Prop. 7:

* ``W |= t+``  iff ``t ∈ I+``;
* ``W |= t−``  iff ``t ∈ I−`` ("stated negative") or some *other* tuple with the
  same key is in ``I+`` ("unstated negative").

The module also implements the *overriding union* used throughout the closure
and the canonical Kripke construction: ``w.override(base)`` adopts from ``base``
every belief that does not conflict with ``w``'s own content. This is exactly
the step of Fig. 9 in the appendix, and the content copy along ``S`` links in
Algorithm 2/4.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core.schema import GroundTuple, Value
from repro.core.statements import NEGATIVE, POSITIVE, Sign
from repro.errors import InconsistencyError

#: A relation-qualified key, the unit of all conflict checks.
KeyId = tuple[str, Value]

EMPTY_FROZENSET: frozenset[GroundTuple] = frozenset()


@dataclass(frozen=True)
class BeliefWorld:
    """An immutable belief world ``W = (I+, I−)`` (Def. 2).

    Neither side is required to satisfy key constraints a priori (Def. 2); use
    :meth:`is_consistent` / :meth:`check_consistent` for Prop. 5.
    """

    positives: frozenset[GroundTuple] = EMPTY_FROZENSET
    negatives: frozenset[GroundTuple] = EMPTY_FROZENSET

    # -- construction ------------------------------------------------------

    @classmethod
    def from_tuples(
        cls,
        positives: Iterable[GroundTuple] = (),
        negatives: Iterable[GroundTuple] = (),
    ) -> "BeliefWorld":
        return cls(frozenset(positives), frozenset(negatives))

    # -- basic views -------------------------------------------------------

    def is_empty(self) -> bool:
        """True iff the world states nothing, i.e. ``W = (∅, ∅)``."""
        return not self.positives and not self.negatives

    def tuples(self) -> Iterator[tuple[GroundTuple, Sign]]:
        """All (tuple, sign) pairs, positives first (deterministic per set order)."""
        for t in self.positives:
            yield t, POSITIVE
        for t in self.negatives:
            yield t, NEGATIVE

    def __len__(self) -> int:
        return len(self.positives) + len(self.negatives)

    # -- consistency (Prop. 5) ----------------------------------------------

    def gamma1_violations(self) -> list[tuple[GroundTuple, GroundTuple]]:
        """Pairs of distinct positive tuples sharing a relation and key."""
        by_key: dict[KeyId, GroundTuple] = {}
        violations: list[tuple[GroundTuple, GroundTuple]] = []
        for t in sorted(self.positives, key=repr):
            other = by_key.get(t.key_id)
            if other is not None:
                violations.append((other, t))
            else:
                by_key[t.key_id] = t
        return violations

    def gamma2_violations(self) -> frozenset[GroundTuple]:
        """Tuples asserted both positive and negative (``I+ ∩ I−``)."""
        return self.positives & self.negatives

    def is_consistent(self) -> bool:
        """``[[W]] ≠ ∅``, by Prop. 5: ``Γ1(W) ∧ Γ2(W)``."""
        return not self.gamma2_violations() and not self.gamma1_violations()

    def check_consistent(self) -> "BeliefWorld":
        """Return ``self`` or raise :class:`InconsistencyError` with details."""
        overlap = self.gamma2_violations()
        if overlap:
            raise InconsistencyError(
                f"Γ2 violated: tuples both positive and negative: "
                f"{sorted(map(str, overlap))}"
            )
        clashes = self.gamma1_violations()
        if clashes:
            a, b = clashes[0]
            raise InconsistencyError(
                f"Γ1 violated: distinct positive tuples share a key: {a} / {b}"
            )
        return self

    # -- entailment (Def. 6 via Prop. 7) -------------------------------------

    def entails_positive(self, t: GroundTuple) -> bool:
        """``W |= t+`` iff ``t ∈ I+`` (Prop. 7)."""
        return t in self.positives

    def entails_negative(self, t: GroundTuple) -> bool:
        """``W |= t−`` iff stated negative, or unstated negative (Prop. 7)."""
        if t in self.negatives:
            return True
        return any(
            other != t for other in self.positives if other.same_key(t)
        )

    def entails(self, t: GroundTuple, sign: Sign) -> bool:
        if sign is POSITIVE:
            return self.entails_positive(t)
        return self.entails_negative(t)

    # -- overriding union (Fig. 9 / Alg. 2 line 9 / Alg. 4 propagation) ------

    def override(self, base: "BeliefWorld") -> "BeliefWorld":
        """Combine explicit content ``self`` with inherited content ``base``.

        Returns the world holding all of ``self`` plus every belief of ``base``
        that is *consistent with self*:

        * a positive ``t+`` from ``base`` is adopted unless ``self`` states
          ``t−`` or states a positive with the same key;
        * a negative ``t−`` from ``base`` is adopted unless ``self`` states
          ``t+``.

        Both worlds are expected to be individually consistent; then the result
        is consistent as well (this is the inductive step behind Lemma 11).
        """
        pos = set(self.positives)
        neg = set(self.negatives)
        own_keys = {t.key_id for t in self.positives}
        for t in base.positives:
            if t in self.negatives or t.key_id in own_keys:
                continue
            pos.add(t)
        for t in base.negatives:
            if t in self.positives:
                continue
            neg.add(t)
        return BeliefWorld(frozenset(pos), frozenset(neg))

    # -- possible-worlds semantics [[W]] (Def. 3) ----------------------------

    def instances(self, universe: Iterable[GroundTuple]) -> Iterator[frozenset[GroundTuple]]:
        """Enumerate ``[[W]]`` restricted to a finite tuple universe.

        Def. 3 quantifies over all instances of the (possibly infinite) tuple
        universe; for testing we enumerate instances drawn from ``universe``
        (which must contain ``I+`` for the result to be non-empty). Intended
        for property tests on tiny universes — exponential by nature.
        """
        universe = set(universe) | set(self.positives)
        optional = sorted(
            universe - self.positives - self.negatives, key=repr
        )
        base = frozenset(self.positives)
        if not _satisfies_key_constraints(base) or base & self.negatives:
            return  # [[W]] is empty
        taken_keys = {t.key_id for t in base}
        # Any subset of the remaining tuples that keeps keys unique is allowed.
        candidates = [t for t in optional if t.key_id not in taken_keys]
        for r in range(len(candidates) + 1):
            for combo in itertools.combinations(candidates, r):
                inst = base | frozenset(combo)
                if _satisfies_key_constraints(inst):
                    yield inst

    def __str__(self) -> str:
        pos = ", ".join(sorted(f"{t}+" for t in self.positives))
        neg = ", ".join(sorted(f"{t}-" for t in self.negatives))
        parts = [p for p in (pos, neg) if p]
        return "{" + "; ".join(parts) + "}"


EMPTY_WORLD = BeliefWorld()


def _satisfies_key_constraints(instance: frozenset[GroundTuple]) -> bool:
    """``Γ(I)`` of Def. 1: keys unique per relation."""
    seen: set[KeyId] = set()
    for t in instance:
        if t.key_id in seen:
            return False
        seen.add(t.key_id)
    return True


class MutableWorld:
    """A mutable builder mirror of :class:`BeliefWorld`, keyed like ``V_i``.

    Used by the closure and the batch materializer, where worlds accumulate
    content incrementally. Tracks, per tuple and sign, whether the entry is
    *explicit* (the ``e`` flag of ``V_i(wid, tid, key, s, e)`` in Sect. 5.1).
    """

    __slots__ = ("positives", "negatives", "explicit", "_pos_by_key")

    def __init__(self) -> None:
        self.positives: set[GroundTuple] = set()
        self.negatives: set[GroundTuple] = set()
        #: (tuple, sign) pairs that are explicitly annotated (e = 'y').
        self.explicit: set[tuple[GroundTuple, Sign]] = set()
        self._pos_by_key: dict[KeyId, GroundTuple] = {}

    # -- mutation ----------------------------------------------------------

    def add_explicit(self, t: GroundTuple, sign: Sign) -> None:
        """Add explicit content. The caller checks consistency beforehand."""
        self._add(t, sign)
        self.explicit.add((t, sign))

    def inherit(self, t: GroundTuple, sign: Sign) -> bool:
        """Adopt inherited content if consistent; return whether adopted."""
        if sign is POSITIVE:
            if t in self.negatives or t.key_id in self._pos_by_key:
                return False
        else:
            if t in self.positives:
                return False
        self._add(t, sign)
        return True

    def _add(self, t: GroundTuple, sign: Sign) -> None:
        if sign is POSITIVE:
            self.positives.add(t)
            self._pos_by_key[t.key_id] = t
        else:
            self.negatives.add(t)

    # -- views --------------------------------------------------------------

    def is_explicit(self, t: GroundTuple, sign: Sign) -> bool:
        return (t, sign) in self.explicit

    def positive_for_key(self, key_id: KeyId) -> GroundTuple | None:
        return self._pos_by_key.get(key_id)

    def freeze(self) -> BeliefWorld:
        return BeliefWorld(frozenset(self.positives), frozenset(self.negatives))

    def __len__(self) -> int:
        return len(self.positives) + len(self.negatives)
