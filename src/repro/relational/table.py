"""Row storage with hash indexes.

A :class:`Table` stores rows as tuples keyed by a surrogate row id, and
maintains hash indexes (exact-match, possibly multi-column). The Datalog
evaluator asks for rows matching a set of bound columns; the table serves the
request from the best matching index and filters the remainder, creating
indexes on demand when profitable. This mirrors what the paper relies on from
its RDBMS ("clustered indexes are available over the internal keys").

Tables also support **copy-on-write forks** (:meth:`Table.snapshot_fork`),
the storage primitive under the MVCC layer (:mod:`repro.storage.mvcc`): a
fork shares the row dict with its origin until either side mutates, at
which point the mutator copies the shared structures and diverges. Rowids
are preserved across the copy, so the mutating side's existing indexes
stay valid; the fork starts with no indexes and rebuilds them on demand.

Rowids are monotone and never reused, a row is immutable under its rowid
(an update is delete + insert), and both survive the copy-on-write copy.
So any two tables of one :attr:`Table.lineage` — a table and its forks, at
any two points in time — differ by exactly "the rows at rowids the older
one never issued, minus the rowids that are gone": the invariant the
sqlite mirror's delta sync rests on. Replaying writes onto a *fork*
(transaction read views do) issues rowids the origin will reuse for other
rows; such a fork is comparable with its own past, not with the origin's
future.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.errors import DuplicateKeyError
from repro.relational.schema import TableSchema

Row = tuple[Any, ...]

#: Tables smaller than this are always scanned; indexes are built lazily above.
_AUTO_INDEX_MIN_ROWS = 32


class Table:
    """An in-memory table: rows, unique-key enforcement, hash indexes."""

    def __init__(self, schema: TableSchema, auto_index: bool = True) -> None:
        self.schema = schema
        self.auto_index = auto_index
        self._rows: dict[int, Row] = {}
        self._next_rowid = 0
        #: index columns (as sorted position tuple) -> value tuple -> rowids
        self._indexes: dict[tuple[int, ...], dict[tuple, set[int]]] = {}
        self._key_positions = schema.key_indexes
        self._key_values: dict[tuple, int] = {}
        #: True while ``_rows``/``_key_values`` are shared with a fork.
        self._shared = False
        #: Identity shared with every fork, and with nothing else.
        self.lineage = object()
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

    def missing_rowids(self, rowids: Iterable[int]) -> list[int]:
        """Those of ``rowids`` that no longer name a row (deleted since)."""
        rows = self._rows
        return [rowid for rowid in rowids if rowid not in rows]

    def contains_row(self, row: Row) -> bool:
        return any(r == row for r in self.match_columns(dict(enumerate(row))))

    # -- copy-on-write forks ----------------------------------------------------

    def snapshot_fork(self) -> "Table":
        """A copy-on-write fork sharing this table's rows until either side
        mutates.

        Both sides are flagged shared; the first mutation on either copies
        ``_rows``/``_key_values`` (two C-speed dict copies) and diverges.
        The fork starts with no indexes — it rebuilds them lazily through
        the normal auto-index path — while this side keeps its indexes,
        which stay valid because rowids survive the dict copy.
        """
        fork = Table.__new__(Table)
        fork.schema = self.schema
        fork.auto_index = self.auto_index
        fork._rows = self._rows
        fork._next_rowid = self._next_rowid
        fork._indexes = {}
        fork._key_positions = self._key_positions
        fork._key_values = self._key_values
        fork._shared = True
        fork.lineage = self.lineage
        self._shared = True
        return fork

    def _materialize(self) -> None:
        """Unshare before a mutation: the writer pays the copy, never readers."""
        if self._shared:
            self._rows = dict(self._rows)
            self._key_values = dict(self._key_values)
            self._shared = False

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
            key = tuple(row[i] for i in self._key_positions)
            if key in self._key_values:
                raise DuplicateKeyError(
                    f"{self.schema.name}: duplicate key {key!r}"
                )
            self._key_values[key] = self._next_rowid
        rowid = self._next_rowid
        self._next_rowid += 1
        self._rows[rowid] = row
        for positions, index in self._indexes.items():
            index[tuple(row[i] for i in positions)].add(rowid)
        return rowid

    def insert_many(self, rows: Iterable[Iterable[Any]]) -> None:
        for row in rows:
            self.insert(row)

    def delete_rowid(self, rowid: int) -> Row:
        self._materialize()
        row = self._rows.pop(rowid)
        if self._key_positions:
            self._key_values.pop(tuple(row[i] for i in self._key_positions), None)
        for positions, index in self._indexes.items():
            vals = tuple(row[i] for i in positions)
            bucket = index.get(vals)
            if bucket is not None:
                bucket.discard(rowid)
                if not bucket:
                    del index[vals]
        return row

    def delete_where(self, predicate: Callable[[Row], bool]) -> int:
        """Delete all rows satisfying ``predicate``; return the count."""
        doomed = [rid for rid, row in self._rows.items() if predicate(row)]
        for rid in doomed:
            self.delete_rowid(rid)
        return len(doomed)

    def delete_matching(self, bound: Mapping[int, Any]) -> int:
        """Delete rows whose columns (by position) equal the bound values."""
        doomed = list(self.match_rowids(bound))
        for rid in doomed:
            self.delete_rowid(rid)
        return len(doomed)

    def clear(self) -> None:
        if self._shared:
            # Don't clear shared dicts in place — replace them.
            self._rows = {}
            self._key_values = {}
            self._shared = False
        else:
            self._rows.clear()
            self._key_values.clear()
        for index in self._indexes.values():
            index.clear()

    # -- indexes -------------------------------------------------------------------

    def create_index(self, columns: tuple[str, ...]) -> None:
        """Create (or no-op if present) a hash index on the named columns."""
        positions = tuple(sorted(self.schema.column_indexes(columns)))
        self._create_index_positions(positions)

    def _create_index_positions(self, positions: tuple[int, ...]) -> None:
        if positions in self._indexes:
            return
        # Build fully, then install: concurrent readers of a shared snapshot
        # either miss the index (and scan) or see it complete — a duplicate
        # concurrent build just installs an identical mapping.
        index: dict[tuple, set[int]] = defaultdict(set)
        for rowid, row in self._rows.items():
            index[tuple(row[i] for i in positions)].add(rowid)
        self._indexes[positions] = index

    def has_index(self, columns: tuple[str, ...]) -> bool:
        return tuple(sorted(self.schema.column_indexes(columns))) in self._indexes

    def index_names(self) -> list[tuple[str, ...]]:
        return [
            tuple(self.schema.columns[i] for i in positions)
            for positions in self._indexes
        ]

    # -- lookups ---------------------------------------------------------------------

    def match_rowids(self, bound: Mapping[int, Any]) -> Iterator[int]:
        """Rowids of rows matching the position->value constraints."""
        if not bound:
            yield from list(self._rows.keys())
            return
        positions = tuple(sorted(bound))
        index = self._best_index(positions)
        if index is None:
            for rowid, row in self._rows.items():
                if all(row[i] == v for i, v in bound.items()):
                    yield rowid
            return
        index_positions, mapping = index
        probe = tuple(bound[i] for i in index_positions)
        candidates = mapping.get(probe, ())
        residual = [i for i in positions if i not in index_positions]
        for rowid in list(candidates):
            row = self._rows[rowid]
            if all(row[i] == bound[i] for i in residual):
                yield rowid

    def match_columns(self, bound: Mapping[int, Any]) -> Iterator[Row]:
        """Rows matching the position->value constraints (index-assisted)."""
        for rowid in self.match_rowids(bound):
            yield self._rows[rowid]

    def match_named(self, **bound: Any) -> Iterator[Row]:
        """Rows matching column-name->value constraints."""
        positions = {self.schema.column_index(c): v for c, v in bound.items()}
        return self.match_columns(positions)

    def _best_index(
        self, positions: tuple[int, ...]
    ) -> tuple[tuple[int, ...], dict[tuple, set[int]]] | None:
        """Pick the largest existing index covered by ``positions``.

        With ``auto_index`` and a sufficiently large table, build the exact
        index on first use — the workloads here (V, E lookups) repeat the same
        access patterns millions of times, so one build pays off immediately.
        """
        best: tuple[tuple[int, ...], dict[tuple, set[int]]] | None = None
        position_set = set(positions)
        # list(): concurrent readers of one shared snapshot may auto-build
        # indexes while we iterate (builds install atomically below).
        for index_positions, mapping in list(self._indexes.items()):
            if set(index_positions) <= position_set:
                if best is None or len(index_positions) > len(best[0]):
                    best = (index_positions, mapping)
        if best is not None and len(best[0]) == len(positions):
            return best
        if self.auto_index and len(self._rows) >= _AUTO_INDEX_MIN_ROWS:
            self._create_index_positions(positions)
            return (positions, self._indexes[positions])
        return best

    def __repr__(self) -> str:
        return f"<Table {self.schema.name} rows={len(self._rows)}>"
