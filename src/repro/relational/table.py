"""Row storage with hash indexes owned by the table's lineage.

A :class:`Table` stores rows as tuples keyed by a surrogate row id and
answers "rows whose columns equal these values" from hash indexes
(exact-match, possibly multi-column). This mirrors what the paper relies on
from its RDBMS ("clustered indexes are available over the internal keys").

Tables support **copy-on-write forks** (:meth:`Table.snapshot_fork`), the
storage primitive under the MVCC layer (:mod:`repro.storage.mvcc`): a fork
shares the row dict with its origin until the origin mutates, at which point
the origin copies it and the fork keeps the frozen one. The copy is for
whoever still reads the old dict: an origin that has become its only holder
again (every fork dropped, no iterator or probe left over it) mutates it in
place, so a write that no reader is watching costs the delta, not the table.

Rowids are monotone and never reused, a row is immutable under its rowid
(an update is delete + insert), and both survive the copy-on-write copy.
So any two tables of one :attr:`Table.lineage` — a table and its forks, at
any two points in time — differ by exactly "the rows at rowids the older
one never issued, minus the rowids that are gone". The sqlite mirror's
delta sync rests on that invariant, and so do the indexes:

* **Ownership.** An index belongs to the :class:`Lineage`, not to a table
  object. The lineage's *owner* — the table that was constructed, the one
  that is written to — keeps every index up to date on each insert and
  delete. A fork builds nothing and copies nothing: it probes the owner's
  indexes by reference.
* **Visibility.** An index bucket may name rowids the probing table does not
  hold: rows inserted after a fork was taken, rows deleted since. Every
  candidate is therefore looked up in the prober's own ``_rows``
  (``rows.get(rowid)``); by the invariant above a rowid it holds names the
  very row that was indexed, so the check is exact, never approximate.
* **Deferred removal.** A fork taken before a delete must still find the
  row, so the owner does not take a deleted rowid out of the buckets while
  such a fork is alive. Removals queue in :attr:`Lineage.pending` in delete
  order; each fork remembers how many removals preceded it, the lineage
  tracks its forks by weak reference, and the owner's next delete or fork
  purges the prefix of the queue that no live fork reaches back to. An
  index the owner builds later covers the queued rows too.
* **Adoption.** A fork that probes a pattern nothing covers builds that
  index for itself and it dies with the fork — so a read shape no declared
  index serves would cost every version a pass over the table. The fork
  therefore also leaves the pattern in :attr:`Lineage.wanted`, and the
  owner's next fork (taken, like every fork, where no write can land)
  builds it once into the shared set and maintains it from then on: an
  index is paid for by the stores whose queries use it, not declared for
  all of them.
* **Detach.** Writing to a fork (a transaction's read view replays staged
  rows onto one) would issue rowids the owner will issue again for other
  rows. The fork's first mutation therefore moves it onto a fresh lineage
  of its own, with no indexes; it builds what it probes, as an owner.
* **Probe policy.** A probe is served by the unique-key dict when the bound
  columns include the key, else by the largest index they cover, plus a
  residual filter over the other bound columns; the choice is made once per
  set of bound columns. Only where nothing covers a pattern is an index
  built (on ``auto_index`` tables of at least ``_AUTO_INDEX_MIN_ROWS``
  rows): the largest declared index that fits, else the exact pattern —
  by the owner into the shared set, by a fork into a private set that
  dies with it. :meth:`Table.access` is that policy and the only copy of
  it: :meth:`Table.prober` probes by it, and the Datalog compiler both
  orders a join by it and writes the probe of a ``key`` or ``index``
  access into its generated loops (:meth:`Table.path` hands out what such
  a loop reads), under the same two rules as ``prober`` — "Visibility"
  above, and the bucket snapshot below.

An index is a trie of at most two levels. A one-column index maps the
value to its bucket. A wider index maps its first column's value to an
inner map, keyed by the bare second value (by a tuple of the rest from
three columns on), whose values are the buckets. No cell of a ``(wid,
key)`` index pays for a key tuple of its own: the inner map's key is a
value the row already holds, and the world's inner map is shared by all its
cells. An inner map is created holding its first bucket and deleted when
its last row leaves, so a world whose rows are all purged leaves nothing
behind. The unique-key dict is one level, like a one-column index, and
holds the bare rowid: a one-column key (``tid``, ``wid``, ``uid``) maps
the bare value, which the row already holds, and only a wider key (the
``lifecycle`` relation's ``(wid, tid, s)``) a tuple of its values.

A bucket is the bare rowid while one row carries the values and a ``list``
of rowids in ascending order from the second row on. Rowids are issued in
increasing order, so an insert appends to its buckets; only an index built
while deletes are pending folds those older rows in with ``insort``. One
removal is a bisect and a ``del``; a purge that takes several rowids out of
one bucket filters that bucket once. A list costs ~9 bytes a rowid where a
``set`` costs ~80-100 (its hash table grows 4x and stays mostly empty).

Thread safety: one thread writes (the BDMS write mutex); any number read
forks. Readers only ``get`` from dicts — the outer map, then the inner map
they found — and snapshot a bucket with ``list(bucket)``, each step atomic
under the interpreter lock: ``list()`` allocates its own object first, then
copies the bucket's item array in one C-level step whose allocation (the
plain allocator) runs no GC — so no finalizer, no Python code at which the
interpreter could switch to the writer. Everything that restructures the
trie runs on the writer's side, each step atomic: an append, an
``insort``, a ``del``, a filtered bucket installed with one dict store, an
inner map installed (already holding its first bucket) or removed (already
empty) with one dict store or delete. Between two steps a reader sees a
state the writer passed through; a reader that still holds an inner map the
writer has since removed reads it empty, as the index was once the map was
gone, and no row a live fork holds can be in an inner map that goes (see
"Deferred removal"). (``tuple(bucket)`` is not atomic: it takes hold of the
bucket's items *before* it allocates the result, that allocation may run
the cyclic GC, the GC a finalizer or weakref callback — Python code, at
which the interpreter may switch to the writer — and the copy then reads a
bucket that changed under it.)
"""

from __future__ import annotations

import operator
import sys
import threading
import weakref
from bisect import bisect_left, insort
from collections import deque
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    Collection,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Sequence,
)

from repro.errors import DuplicateKeyError
from repro.relational.schema import TableSchema

Row = tuple[Any, ...]
#: A bucket is the one rowid carrying an index's values, or the ascending
#: list of them. A one-column index maps the value to its bucket; a wider
#: one maps its first column's value to an inner map from the rest (the bare
#: second value; a tuple from three columns on) to the bucket.
Index = dict[Any, Any]

#: What a first value no inner map exists for reads as: nothing (read only).
NO_ROWS: Mapping[Any, Any] = MappingProxyType({})


class Access(NamedTuple):
    """How probes binding a tuple of columns are served (:meth:`Table.access`).

    ``kind`` is ``key`` (the unique-key dict), ``index`` (a hash index),
    ``build`` (no index covers the columns: the first probe builds this
    one) or ``scan``; ``positions`` are the columns the dict is keyed on;
    ``pick`` is where those sit among the probe's values (None when they
    are the values as given) and ``checks`` the ``(column, place among the
    values)`` of the bound columns the dict leaves to filter.
    """

    kind: str
    positions: tuple[int, ...]
    pick: "tuple[int, ...] | None"
    checks: tuple[tuple[int, int], ...]


_SCAN = Access("scan", (), None, ())

#: Tables smaller than this are scanned rather than auto-indexed.
_AUTO_INDEX_MIN_ROWS = 32


class IndexCounters:
    """What the index layer did, summed over the tables that report here.

    ``builds`` counts full passes that built an index, by scope: ``shared``
    (by a lineage's owner; kept up to date from then on) or ``private`` (by
    a fork or a detached fork; thrown away with it). ``stale_skipped``
    counts bucket candidates a probe dropped because the probing table does
    not hold that rowid.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.builds = {"shared": 0, "private": 0}
        self.stale_skipped = 0

    def note_build(self, scope: str) -> None:
        with self._lock:
            self.builds[scope] += 1

    def note_stale(self, count: int) -> None:
        with self._lock:
            self.stale_skipped += count

    def absorb(self, other: "IndexCounters") -> None:
        """Continue ``other``'s counts (its database is being replaced)."""
        with self._lock:
            for scope, count in other.builds.items():
                self.builds[scope] += count
            self.stale_skipped += other.stale_skipped


class Lineage:
    """What a table shares with its forks: identity, indexes, fork liveness.

    ``indexes`` is maintained by the owner alone. ``pending`` holds the
    ``(rowid, row)`` of deletes not yet taken out of the buckets, oldest
    first; ``purged`` counts those already taken out, so a delete's sequence
    number is ``purged`` plus its place in the queue. ``forks`` maps
    ``id(fork)`` to the number of deletes that preceded the fork and the
    weak reference whose callback drops the entry when the fork dies.
    """

    __slots__ = (
        "indexes", "forks", "pending", "purged", "wanted", "counters", "scope"
    )

    def __init__(self, counters: IndexCounters, scope: str = "shared") -> None:
        self.indexes: dict[tuple[int, ...], Index] = {}
        self.forks: dict[int, tuple[int, weakref.ref]] = {}
        self.pending: deque[tuple[int, Row]] = deque()
        self.purged = 0
        #: Positions a fork had to index for itself; the owner's next fork
        #: builds them into ``indexes``. (Added to from reader threads,
        #: popped on the writer's side: one atomic set operation each.)
        self.wanted: set[tuple[int, ...]] = set()
        self.counters = counters
        self.scope = scope

    def track(self, fork: "Table", frozen_at: int) -> None:
        forks, key = self.forks, id(fork)
        # The callback may run on any thread: one atomic dict operation.
        forks[key] = (
            frozen_at, weakref.ref(fork, lambda _ref: forks.pop(key, None))
        )

    def oldest_fork(self) -> int | None:
        """The fewest preceding deletes among live forks; None without one."""
        live = [frozen_at for frozen_at, _ in list(self.forks.values())]
        return min(live) if live else None


#: positions -> ``row -> `` its key in the unique-key dict, built once.
_PICKERS: dict[tuple[int, ...], Callable[[Row], Any]] = {}


def _picker(positions: tuple[int, ...]) -> Callable[[Row], Any]:
    """The function taking a row to its unique key: the bare value of a
    one-column key, a tuple of the values of a wider one (a C-level
    ``itemgetter`` either way: this runs per row written)."""
    pick = _PICKERS.get(positions)
    if pick is None:
        pick = _PICKERS[positions] = operator.itemgetter(*positions)
    return pick


#: positions -> ``row -> `` the inner-map key of an index on them.
_RESTS: dict[tuple[int, ...], Callable[[Row], Any]] = {}


def _rest(positions: tuple[int, ...]) -> Callable[[Row], Any] | None:
    """The function taking a row to its key in the inner map of an index on
    ``positions`` — the bare second value, a tuple of the rest from three
    columns on; None for a one-column index, which has no inner map."""
    if len(positions) == 1:
        return None
    rest = _RESTS.get(positions)
    if rest is None:
        rest = _RESTS[positions] = operator.itemgetter(*positions[1:])
    return rest


def _bucket_add(level: dict, value: Any, rowid: int) -> None:
    bucket = level.get(value)
    if bucket is None:
        level[value] = rowid
    elif type(bucket) is int:
        level[value] = [bucket, rowid] if bucket < rowid else [rowid, bucket]
    elif bucket[-1] < rowid:
        bucket.append(rowid)
    else:  # an older row: only a build folding in pending deletes adds one
        insort(bucket, rowid)


def _index_rows(
    index: Index, positions: tuple[int, ...], items: Iterable[tuple[int, Row]]
) -> None:
    """Add each ``(rowid, row)`` to ``index`` on ``positions``. A new inner
    map is installed already holding its first bucket: one dict store."""
    first, rest = positions[0], _rest(positions)
    if rest is None:
        for rowid, row in items:
            _bucket_add(index, row[first], rowid)
        return
    for rowid, row in items:
        value = row[first]
        inner = index.get(value)
        if inner is None:
            index[value] = {rest(row): rowid}
        else:
            _bucket_add(inner, rest(row), rowid)


def _bucket_discard(level: dict, value: Any, rowids: Sequence[int]) -> None:
    """Take ``rowids`` (distinct) out of the bucket of ``value``: one
    bisect and ``del`` for a single rowid, one filtering pass for several
    (a ``del`` each would move the bucket's tail once per rowid)."""
    bucket = level.get(value)
    if type(bucket) is not list:
        if bucket in rowids:
            del level[value]
        return
    if len(rowids) == 1:
        at = bisect_left(bucket, rowids[0])
        if at < len(bucket) and bucket[at] == rowids[0]:
            del bucket[at]
    else:
        doomed = set(rowids)
        bucket = [rowid for rowid in bucket if rowid not in doomed]
        level[value] = bucket
    if len(bucket) < 2:
        if bucket:
            level[value] = bucket[0]
        else:
            del level[value]


def _inner_discard(
    index: Index, first: Any, value: Any, rowids: Sequence[int]
) -> None:
    """:func:`_bucket_discard` in the inner map of ``first``; an inner map
    left empty goes with one dict delete."""
    level = index.get(first)
    if level is not None:
        _bucket_discard(level, value, rowids)
        if not level:
            del index[first]


def _finder(index: dict, access: Access) -> Callable[[Sequence], Any]:
    """``values -> bucket or None`` for a ``key`` or ``index`` access,
    ``values`` in the order of ``access.positions``: one ``get`` per level
    of the trie, on the bare value where a level is keyed by one column
    (the key dict is one level, keyed by a tuple only for a wider key)."""
    get = index.get
    width = len(access.positions)
    if access.kind == "key" and width > 1:
        return lambda values: get(tuple(values))
    if width == 1:
        return lambda values: get(values[0])
    if width == 2:
        return lambda values: get(values[0], NO_ROWS).get(values[1])
    return lambda values: get(values[0], NO_ROWS).get(tuple(values[1:]))


class Table:
    """An in-memory table: rows, unique-key enforcement, hash indexes."""

    def __init__(self, schema: TableSchema, auto_index: bool = True) -> None:
        self.schema = schema
        self.auto_index = auto_index
        self._rows: dict[int, Row] = {}
        self._next_rowid = 0
        self._key_positions = schema.key_indexes
        self._key_values: dict[Any, int] = {}
        #: True while ``_rows``/``_key_values`` are shared with a fork.
        self._shared = False
        #: Shared with every fork, and with nothing else.
        self.lineage = Lineage(IndexCounters())
        #: The indexes this table installs into: the lineage's for its
        #: owner (which also maintains them), a private set for a fork.
        self._indexes = self.lineage.indexes
        #: None for the owner; for a fork, the deletes that preceded it.
        self._frozen_at: int | None = None
        #: bound positions (in the caller's order) -> access path and the
        #: index it reads (built if it had to be; None for the key dict)
        self._plans: dict[tuple[int, ...], tuple[Access, Index | None]] = {}
        for columns in schema.indexes:
            self.create_index(columns)

    # -- basic accessors ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows.values())

    def rows(self) -> list[Row]:
        return list(self._rows.values())

    def items(self) -> Iterator[tuple[int, Row]]:
        return iter(self._rows.items())

    @property
    def next_rowid(self) -> int:
        """The rowid the next insert gets; every issued rowid is below it."""
        return self._next_rowid

    def rows_from(self, rowid: int) -> list[tuple[int, Row]]:
        """``(rowid, row)`` of every row at or above ``rowid``, ascending.

        O(answer): rowids are issued in increasing order and the row dict
        keeps insertion order, so these are exactly its tail.
        """
        tail = []
        for item in reversed(self._rows.items()):
            if item[0] < rowid:
                break
            tail.append(item)
        tail.reverse()
        return tail

    def row(self, rowid: int) -> Row:
        """The row at ``rowid``; KeyError if this table does not hold it."""
        return self._rows[rowid]

    def missing_rowids(self, rowids: Iterable[int]) -> list[int]:
        """Those of ``rowids`` that no longer name a row (deleted since)."""
        rows = self._rows
        return [rowid for rowid in rowids if rowid not in rows]

    def contains_row(self, row: Row) -> bool:
        return bool(self.prober(tuple(range(len(row))))(tuple(row)))

    # -- copy-on-write forks ----------------------------------------------------

    def snapshot_fork(self) -> "Table":
        """A frozen copy-on-write fork: nothing is copied, and nothing built
        but what an earlier fork had to build for itself ("Adoption").

        It shares this table's rows until this side mutates (which copies
        ``_rows``/``_key_values``, two C-speed dict copies, if the fork is
        still alive by then) and probes the lineage's indexes for as long
        as it lives. A fork of a fork is frozen at the same point as its
        parent.
        """
        lineage = self.lineage
        frozen_at = self._frozen_at
        if frozen_at is None:
            self._purge()
            frozen_at = lineage.purged + len(lineage.pending)
            while lineage.wanted:  # what earlier forks built for themselves
                positions = lineage.wanted.pop()
                if positions not in lineage.indexes:
                    self._build_index(positions)
        fork = Table.__new__(Table)
        fork.schema = self.schema
        fork.auto_index = self.auto_index
        fork._rows = self._rows
        fork._next_rowid = self._next_rowid
        fork._key_positions = self._key_positions
        fork._key_values = self._key_values
        fork._shared = True
        fork.lineage = lineage
        fork._indexes = {}
        fork._frozen_at = frozen_at
        fork._plans = {}
        lineage.track(fork, frozen_at)
        self._shared = True
        return fork

    def _materialize(self) -> None:
        """Unshare before a mutation: the writer pays the copy, never readers.

        A fork that is written to also leaves its lineage first: its new
        rowids would collide with the owner's. The owner copies only while
        something else still holds its dicts.
        """
        if self._shared:
            if self._frozen_at is not None:
                self.lineage.forks.pop(id(self), None)
                self.lineage = Lineage(self.lineage.counters, scope="private")
                self._indexes = self.lineage.indexes
                self._frozen_at = None
                self._plans = {}
            elif (
                sys.getrefcount(self._rows) == 2
                and sys.getrefcount(self._key_values) == 2
            ):
                # Two references each, ours and the call's: every fork that
                # shared them is gone, and every iterator and probe over
                # them. (CPython counts exactly; a count that ran high would
                # only cost the copy back.)
                self._shared = False
                return
            self._rows = dict(self._rows)
            self._key_values = dict(self._key_values)
            self._shared = False

    def _purge(self) -> None:
        """Take out of the buckets the deleted rowids no live fork reaches."""
        lineage = self.lineage
        pending = lineage.pending
        if not pending:
            return
        oldest = lineage.oldest_fork()
        reach = len(pending) if oldest is None else oldest - lineage.purged
        if reach == 1:  # the usual purge: one bisect per index, no grouping
            rowid, row = pending.popleft()
            for positions, index in self._indexes.items():
                first, rest = row[positions[0]], _rest(positions)
                if rest is None:
                    _bucket_discard(index, first, (rowid,))
                else:
                    _inner_discard(index, first, rest(row), (rowid,))
        else:  # each bucket's removals together: one pass per bucket
            taken = [pending.popleft() for _ in range(reach)]
            for positions, index in self._indexes.items():
                at, rest = positions[0], _rest(positions)
                shared: dict[tuple, list[int]] = {}
                for rowid, row in taken:
                    first = row[at]
                    if rest is None:
                        level, value = index, first
                    else:
                        level, value = index[first], rest(row)
                    if level.get(value) == rowid:  # a one-row bucket: this row
                        del level[value]
                        if not level and level is not index:
                            del index[first]
                    else:
                        shared.setdefault((first, value), []).append(rowid)
                for (first, value), rowids in shared.items():
                    if rest is None:
                        _bucket_discard(index, first, rowids)
                    else:
                        _inner_discard(index, first, value, rowids)
        lineage.purged += reach

    # -- mutation ---------------------------------------------------------------

    def insert(self, row: Iterable[Any]) -> int:
        """Insert a row; returns its rowid. Enforces the unique key if any."""
        self._materialize()
        row = tuple(row)
        if len(row) != self.schema.arity:
            raise ValueError(
                f"{self.schema.name}: expected {self.schema.arity} values, "
                f"got {len(row)}"
            )
        if self._key_positions:
            key = _picker(self._key_positions)(row)
            if key in self._key_values:
                raise self._duplicate(key)
            self._key_values[key] = self._next_rowid
        rowid = self._next_rowid
        self._next_rowid += 1
        self._rows[rowid] = row
        for positions, index in self._indexes.items():
            _index_rows(index, positions, ((rowid, row),))
        return rowid

    def insert_many(self, rows: Iterable[Iterable[Any]]) -> None:
        """Insert ``rows`` as one batch: the table's bulk write path (the
        Datalog layer's temporaries, Algorithm 4's propagation).

        All or nothing: every row's arity and the unique key — against the
        stored rows and within the batch — are checked before any row
        lands. Then one ``_rows`` update and one pass per index. Each
        rowid is one ``int`` object, shared by ``_rows``, the key dict and
        every bucket that names it (an ``int`` per index would cost an
        m = 100 store 18% more memory).
        """
        rows = list(map(tuple, rows))
        if not rows:
            return
        arity = self.schema.arity
        if not set(map(len, rows)) <= {arity}:
            raise ValueError(
                f"{self.schema.name}: expected {arity} values in every row"
            )
        start = self._next_rowid
        rowids = list(range(start, start + len(rows)))
        if self._key_positions:
            pick_key, stored = _picker(self._key_positions), self._key_values
            keys = dict(zip(map(pick_key, rows), rowids))
            if len(keys) < len(rows) or not stored.keys().isdisjoint(keys):
                seen: set = set()
                for key in map(pick_key, rows):
                    if key in seen or key in stored:
                        raise self._duplicate(key)
                    seen.add(key)
        self._materialize()
        if self._key_positions:
            self._key_values.update(keys)
        self._next_rowid = start + len(rows)
        self._rows.update(zip(rowids, rows))
        for positions, index in self._indexes.items():
            _index_rows(index, positions, zip(rowids, rows))

    def delete_rowid(self, rowid: int) -> Row:
        self._materialize()
        row = self._rows.pop(rowid)
        if self._key_positions:
            self._key_values.pop(_picker(self._key_positions)(row), None)
        # Queue, then purge: with no fork alive that empties the queue.
        self.lineage.pending.append((rowid, row))
        self._purge()
        return row

    def delete_rowids(self, rowids: Collection[int]) -> int:
        """Delete the rows at ``rowids`` (distinct, all held) as one batch;
        return the count. Every row is queued for the buckets at once and
        the queue purged once: with no fork alive that empties it. No
        rowids, no write: nothing is copied or purged."""
        if not rowids:
            return 0
        self._materialize()
        pop, queue = self._rows.pop, self.lineage.pending.append
        key_of = self._key_positions and _picker(self._key_positions)
        unkey = self._key_values.pop
        for rowid in rowids:
            row = pop(rowid)
            if key_of:
                unkey(key_of(row), None)
            queue((rowid, row))
        self._purge()
        return len(rowids)

    def delete_where(self, predicate: Callable[[Row], bool]) -> int:
        """Delete all rows satisfying ``predicate``; return the count."""
        return self.delete_rowids(
            [rid for rid, row in self._rows.items() if predicate(row)]
        )

    def delete_key(self, key: Any) -> Row:
        """Delete the row whose unique key is ``key`` (the bare value of a
        one-column key, or its 1-tuple; a tuple of a wider key's values);
        returns it."""
        return self.delete_rowid(self._key_values[self._stored_key(key)])

    def delete_keys(self, keys: Iterable[Any]) -> int:
        """Delete the rows whose unique keys are ``keys`` (distinct, all
        held; each as :meth:`delete_key` takes it) as one batch
        (:meth:`delete_rowids`); return the count."""
        held, stored = self._key_values, self._stored_key
        return self.delete_rowids([held[stored(key)] for key in keys])

    def _stored_key(self, key: Any) -> Any:
        """``key`` as the key dict holds it: a one-column key's 1-tuple
        unwrapped to its value."""
        if len(self._key_positions) == 1 and type(key) is tuple:
            (key,) = key
        return key

    def _duplicate(self, key: Any) -> DuplicateKeyError:
        """The error naming ``key`` (as stored) in tuple form."""
        if len(self._key_positions) == 1:
            key = (key,)
        return DuplicateKeyError(f"{self.schema.name}: duplicate key {key!r}")

    def delete_matching(self, bound: Mapping[int, Any]) -> int:
        """Delete rows whose columns (by position) equal the bound values."""
        return self.delete_rowids(
            self.prober(tuple(bound), rowids=True)(tuple(bound.values()))
        )

    def clear(self) -> None:
        self.delete_rowids(list(self._rows))

    # -- indexes -------------------------------------------------------------------

    def create_index(self, columns: tuple[str, ...]) -> None:
        """Create (or no-op if present) a hash index on the named columns."""
        positions = tuple(sorted(self.schema.column_indexes(columns)))
        if not self._has_index(positions):
            self._build_index(positions)

    def has_index(self, columns: tuple[str, ...]) -> bool:
        return self._has_index(tuple(sorted(self.schema.column_indexes(columns))))

    def _has_index(self, positions: tuple[int, ...]) -> bool:
        return positions in self.lineage.indexes or positions in self._indexes

    def _build_index(self, positions: tuple[int, ...]) -> Index:
        """One pass over the rows; then install (a reader sees it whole).
        The row dict is in rowid order, so every bucket is built by appends;
        the owner's pending deletes are older rows, folded in by ``insort``."""
        index: Index = {}
        _index_rows(index, positions, self._rows.items())
        lineage = self.lineage
        if self._frozen_at is None:
            # Rows deleted here that live forks still hold.
            _index_rows(index, positions, lineage.pending)
        else:
            lineage.wanted.add(positions)
        self._indexes[positions] = index
        self._plans.clear()
        lineage.counters.note_build(
            lineage.scope if self._frozen_at is None else "private"
        )
        return index

    # -- lookups ---------------------------------------------------------------------

    def match_rowids(self, bound: Mapping[int, Any]) -> Iterator[int]:
        """Rowids of rows matching the position->value constraints."""
        return iter(self.prober(tuple(bound), rowids=True)(tuple(bound.values())))

    def match_columns(self, bound: Mapping[int, Any]) -> Iterator[Row]:
        """Rows matching the position->value constraints (index-assisted)."""
        return iter(self.prober(tuple(bound))(tuple(bound.values())))

    def match_named(self, **bound: Any) -> Iterator[Row]:
        """Rows matching column-name->value constraints."""
        columns = tuple(map(self.schema.column_index, bound))
        return iter(self.prober(columns)(tuple(bound.values())))

    def prober(
        self, columns: tuple[int, ...], rowids: bool = False
    ) -> Callable[[tuple], Sequence]:
        """``probe(values)``: this table's rows (or their rowids) whose
        ``columns`` equal ``values``, given in the same order.

        The table's probe loop for callers that hold values, not code. The
        access path is chosen here, once: a caller that probes one pattern
        many times over keeps the probe, good until this table's next
        mutation; ``match_*`` make one per call. (A compiled rule reads
        the same path through :meth:`access` and :meth:`path` and runs
        this loop inline.)
        """
        rows = self._rows
        if not columns:
            return lambda values: list(rows if rowids else rows.values())
        access, index = self._plans.get(columns) or self._resolve(columns)
        if access is _SCAN:

            def scan(values: tuple) -> list:
                wanted = tuple(zip(columns, values))
                matches = []
                for rowid, row in rows.items():
                    for i, value in wanted:
                        if row[i] != value:
                            break
                    else:
                        matches.append(rowid if rowids else row)
                return matches

            return scan
        _, _, pick, checks = access
        find = _finder(self._key_values if index is None else index, access)
        held = rows.get
        lineage = self.lineage

        def probe(values: tuple) -> Sequence:
            bucket = find(values if pick is None else [values[j] for j in pick])
            if bucket is None:
                return ()
            matches = []
            stale = 0
            # list(): the owner may add to the bucket while a fork reads it.
            for rowid in (bucket,) if type(bucket) is int else list(bucket):
                row = held(rowid)
                if row is None:
                    stale += 1
                    continue
                for i, j in checks:
                    if row[i] != values[j]:
                        break
                else:
                    matches.append(rowid if rowids else row)
            if stale:
                lineage.counters.note_stale(stale)
            return matches

        return probe

    def access(self, columns: tuple[int, ...]) -> Access:
        """The probe policy for ``columns``, nothing built: the unique key
        when they include it, else the longest index they cover, else (on
        an ``auto_index`` table of ``_AUTO_INDEX_MIN_ROWS`` rows or more) an
        index to build — the largest declared one that fits, else the
        exact pattern — else a scan. But for build-or-scan, which looks at
        the size, the answer depends on :meth:`signature` alone."""
        bound = set(columns)
        if not bound:
            return _SCAN
        if self._key_positions and bound.issuperset(self._key_positions):
            kind, positions = "key", self._key_positions
        else:
            _, available = self.signature()
            covered = [p for p in available if bound.issuperset(p)]
            if covered:
                kind, positions = "index", max(covered, key=len)
            elif not self.auto_index or len(self._rows) < _AUTO_INDEX_MIN_ROWS:
                return _SCAN
            else:
                declared = [
                    p
                    for p in map(self.schema.column_indexes, self.schema.indexes)
                    if bound.issuperset(p)
                ]
                kind = "build"
                positions = tuple(sorted(max(declared, key=len, default=columns)))
        return Access(
            kind,
            positions,
            None if positions == columns else tuple(map(columns.index, positions)),
            tuple((i, j) for j, i in enumerate(columns) if i not in positions),
        )

    def signature(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The key's positions and those of every index a probe may use:
        what a compiled rule's access paths were chosen from."""
        # copy(): forks of one version resolve (and build) concurrently.
        indexes = tuple(self.lineage.indexes.copy())
        if self._frozen_at is not None:
            indexes += tuple(self._indexes.copy())
        return self._key_positions, indexes

    def path(self, access: Access) -> tuple[Callable, Callable, Callable]:
        """What a ``key`` or ``index`` access reads, for one execution:
        ``(get, rowid -> row or None, count candidates dropped)``. ``get``
        takes the value of a one-column key or index, the tuple of a wider
        key's values, and the first value of a wider index, whose inner map
        then takes the rest (``get(first, NO_ROWS).get(rest)``); each returns
        None where nothing is stored. A bucket is a rowid or a list of them
        that the lineage's owner may be adding to: snapshot it with
        ``list()``, and look every candidate up — it may name a row this
        table does not hold (see "Visibility" above)."""
        index = self._index_of(access)
        return (
            (self._key_values if index is None else index).get,
            self._rows.get,
            self.lineage.counters.note_stale,
        )

    def _index_of(self, access: Access) -> Index | None:
        """The index an ``index`` access reads; None for the unique-key
        dict, which the owner replaces when it unshares its rows."""
        if access.kind == "key":
            return None
        index = self.lineage.indexes.get(access.positions)
        return self._indexes[access.positions] if index is None else index

    def access_path(self, columns: tuple[int, ...]) -> str:
        """:meth:`access` in words, for EXPLAIN: ``key``, ``index(cols)``
        or ``build(cols)``, each with ``+residual(cols)`` where bound
        columns are left to filter, or ``scan``."""
        kind, positions, _, checks = self.access(columns)
        names = self.schema.columns
        path = kind
        if positions and kind != "key":
            path += "(" + ", ".join(names[i] for i in positions) + ")"
        if checks:
            path += "+residual(" + ", ".join(names[i] for i, _ in checks) + ")"
        return path

    def _resolve(self, columns: tuple[int, ...]) -> tuple[Access, Index | None]:
        """:meth:`access` with its index, built if need be; remembered
        unless it is a scan, which is decided afresh each time because the
        table may outgrow it."""
        access = self.access(columns)
        if access is _SCAN:
            return access, None
        if access.kind == "build":
            self._build_index(access.positions)
            access = access._replace(kind="index")
        plan = self._plans[columns] = (access, self._index_of(access))
        return plan

    def __repr__(self) -> str:
        return f"<Table {self.schema.name} rows={len(self._rows)}>"
