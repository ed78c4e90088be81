"""The hash ring: determinism, balance, stability, and head extraction.

The partitioning layer is pure arithmetic, so these tests pin its whole
contract: identical placement across independently built rings (the router
and coordinator never exchange placement state — they both just compute
it), a usable balance spread, the consistent-hashing bound on keys moved
by growing the fleet, and the path-head rules that map wire params and
parsed statements to ring keys.
"""

from __future__ import annotations

import pytest

from repro.beliefsql.ast import Literal, Placeholder
from repro.errors import BeliefDBError
from repro.shard.partitioning import (
    CONTENT_KEY,
    HashRing,
    canonical_key,
    path_head,
    statement_head,
)


def test_ring_is_deterministic_across_instances():
    a, b = HashRing(4), HashRing(4)
    keys = [f"user-{i}" for i in range(500)] + [CONTENT_KEY, "Alice"]
    assert [a.shard_for(k) for k in keys] == [b.shard_for(k) for k in keys]


def test_every_shard_owns_a_usable_share():
    ring = HashRing(4)
    spread = ring.spread([f"user-{i}" for i in range(2000)])
    assert set(spread) == {0, 1, 2, 3}
    # Virtual nodes keep the skew bounded: no shard starves or hogs.
    assert min(spread.values()) > 2000 / 4 / 3
    assert max(spread.values()) < 2000 / 4 * 3


def test_growing_the_ring_moves_a_bounded_fraction():
    small, grown = HashRing(4), HashRing(5)
    keys = [f"user-{i}" for i in range(2000)]
    moved = sum(
        1 for k in keys if small.shard_for(k) != grown.shard_for(k)
    )
    # Consistent hashing: ~1/5 of keys move to the new shard; a full
    # reshuffle would move ~4/5. Allow generous slack over the ideal.
    assert moved / len(keys) < 0.45


def test_single_shard_ring_routes_everything_to_zero():
    ring = HashRing(1)
    assert ring.shard_for("anyone") == 0
    assert ring.shard_for(CONTENT_KEY) == 0


def test_ring_rejects_empty_fleet():
    with pytest.raises(BeliefDBError, match="at least one shard"):
        HashRing(0)


def test_canonical_key_separates_names_from_uids():
    # User named "1" and uid 1 are different principals — different keys.
    assert canonical_key("1") != canonical_key(1)
    assert canonical_key("Alice") == "Alice"


def test_path_head_rules():
    # Explicit path wins; empty explicit path means plain content.
    assert path_head(["Bob"], ["Alice"]) == "Bob"
    assert path_head([], ["Alice"]) == CONTENT_KEY
    # No explicit path: the session default; an empty one is plain content.
    assert path_head(None, ["Alice", "Bob"]) == "Alice"
    assert path_head(None, []) == CONTENT_KEY


def test_statement_head_literal_and_placeholder():
    assert statement_head((Literal("Bob"),), (), ["Alice"]) == "Bob"
    # A placeholder head routes by its bound parameter.
    assert statement_head(
        (Placeholder(0),), ("Carol",), ["Alice"]
    ) == "Carol"
    # No BELIEF prefix: route like the session default.
    assert statement_head((), (), ["Alice"]) == "Alice"


def test_statement_head_missing_parameter_is_typed():
    with pytest.raises(BeliefDBError, match="needs parameter 0"):
        statement_head((Placeholder(0),), (), [])
