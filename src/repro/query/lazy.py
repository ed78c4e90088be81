"""Lazy query evaluation — the Sect. 6.3 future-work alternative.

The eager representation materializes every implicit belief, which is where
the ``O(m^dmax)`` storage overhead comes from. The alternative the paper
sketches is to store only explicit annotations and "apply the default rule
only during query evaluation". This module implements that mode:

* the store is created with ``eager=False`` — its valuation tables hold only
  explicit rows, so ``|R*|`` stays ``O(n + m)``;
* queries run through the Def. 14 evaluator over the explicit statements
  (:func:`evaluate_lazy`), built from V for the query, which reconstructs
  entailed worlds on demand via the closure's suffix-chain walk.

The answers are identical to the translated/eager path (tests assert this);
the tradeoff is a smaller database for slower queries; its last measured
numbers are in ``docs/performance.md`` (the lazy-vs-eager ablation).
"""

from __future__ import annotations

from repro.query.bcq import BCQuery
from repro.query.naive import evaluate_naive
from repro.storage.store import BeliefStore


def evaluate_lazy(store: BeliefStore, query: BCQuery) -> set[tuple]:
    """Def. 14 on the explicit statements (the bench ledger imports this)."""
    return evaluate_naive(store.explicit_db, query, users=store.users())
