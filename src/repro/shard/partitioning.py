"""Stable hash-ring partitioning keyed by belief world.

The paper's belief annotations are per-user: every explicit statement lives
in a world addressed by a belief path, and the *head* of that path (the
outermost believer) names the user whose shard owns it. Partitioning on the
path head therefore keeps each user's whole world tree — ``(u)``, ``(u, v)``,
``(u, v, w)``, ... — on one shard, so ``believes``/``world`` lookups and the
paper's per-world closure stay shard-local. Plain content (the empty path)
hashes under the reserved :data:`CONTENT_KEY`.

The ring is a classic consistent-hash ring with virtual nodes, built on
:mod:`hashlib` (``blake2b``) rather than the builtin ``hash()`` — the
builtin is salted per process, and the router, coordinator, and every test
must all agree on key placement across process boundaries and restarts.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Any, Sequence

from repro.beliefsql.ast import Placeholder
from repro.errors import BeliefDBError

#: The routing key for plain content — statements with an empty belief path.
CONTENT_KEY = ""

#: Virtual nodes per shard. 64 points per shard keeps the worst/best shard
#: load spread within a few percent for realistic user counts while the ring
#: stays tiny (N*64 ints).
DEFAULT_VNODES = 64


def _hash64(data: str) -> int:
    """A stable 64-bit hash (process- and platform-independent)."""
    return int.from_bytes(
        hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest(), "big"
    )


def canonical_key(value: Any) -> str:
    """Normalize a path-head value (user name or uid) to a ring key.

    Strings map to themselves; anything else (integer uids, mostly) maps to
    its ``repr`` prefixed so that user ``"1"`` and uid ``1`` cannot collide.
    The router prefers resolving uids back to names before hashing — both
    spellings of one user must land on one shard — and falls back to this
    for uids it has never seen.
    """
    if isinstance(value, str):
        return value
    return f"uid:{value!r}"


class HashRing:
    """Consistent placement of belief-world keys onto ``n_shards`` shards.

    Stability contract: ``shard_for(key)`` depends only on ``(n_shards,
    vnodes, key)`` — never on process identity, insertion order, or time —
    so every router/coordinator/test computes identical placements. Growing
    the ring from N to N+1 shards moves only ~1/(N+1) of the keyspace (the
    consistent-hashing property), which is what makes future resharding an
    incremental migration instead of a full reshuffle.
    """

    def __init__(self, n_shards: int, vnodes: int = DEFAULT_VNODES) -> None:
        if n_shards < 1:
            raise BeliefDBError("a hash ring needs at least one shard")
        self.n_shards = n_shards
        self.vnodes = vnodes
        points: list[tuple[int, int]] = []
        for shard in range(n_shards):
            for replica in range(vnodes):
                points.append((_hash64(f"shard-{shard}:vnode-{replica}"), shard))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._shards = [s for _, s in points]

    def shard_for(self, key: Any) -> int:
        """The shard owning ``key`` (a user name/uid or :data:`CONTENT_KEY`)."""
        h = _hash64(canonical_key(key))
        index = bisect.bisect(self._hashes, h)
        if index == len(self._hashes):
            index = 0  # wrap around the ring
        return self._shards[index]

    def spread(self, keys: Sequence[Any]) -> dict[int, int]:
        """Keys-per-shard histogram — used by balance tests and shard-status."""
        out = {shard: 0 for shard in range(self.n_shards)}
        for key in keys:
            out[self.shard_for(key)] += 1
        return out

    def __repr__(self) -> str:
        return f"<HashRing shards={self.n_shards} vnodes={self.vnodes}>"


def path_head(path: Sequence[Any] | None, default_path: Sequence[Any]) -> Any:
    """The routing key for a programmatic op's belief path.

    ``path`` is the op's explicit path argument (``None`` means "session
    default"); ``default_path`` is the session's default path. An empty
    effective path is plain content, whoever is logged in.
    """
    effective = default_path if path is None else path
    return effective[0] if effective else CONTENT_KEY


def statement_head(
    belief_path: Sequence[Any],
    params: Sequence[Any],
    default_path: Sequence[Any],
) -> Any:
    """The routing key for a parsed DML statement's belief spec.

    The path head may be a :class:`~repro.beliefsql.ast.Placeholder` (e.g.
    ``insert into BELIEF ? not Sightings values (...)``) — then the bound
    parameter at its index is the key. A statement with no ``BELIEF`` prefix
    routes by the session default (the one ``ClientSession.rewrite``
    prepends before the statement is forwarded).
    """
    if belief_path:
        head = belief_path[0]
        if isinstance(head, Placeholder):
            if head.index >= len(params):
                raise BeliefDBError(
                    f"statement needs parameter {head.index} for its belief "
                    f"path but only {len(params)} were bound"
                )
            return params[head.index]
        value = getattr(head, "value", head)
        return value
    return path_head(None, default_path)
