"""SQLite mirror backend.

The paper runs its translated queries on a commercial RDBMS (SQL Server 2005
via JDBC). The stdlib ``sqlite3`` plays that role here: the internal tables of
a belief store are mirrored into a SQLite database and the SQL produced by
:mod:`repro.query.sql_gen` executes there.

A mirror is **advanced**, not rebuilt: :meth:`SqliteMirror.sync` remembers,
per table, what it reflects — the table's lineage, its ``next_rowid`` and its
row count — and applies only the difference to the source it is given. That
rests on the engine's rowid invariant (:mod:`repro.relational.table`):
rowids are monotone, never reused, survive copy-on-write, and a row never
changes under its rowid. So the rows inserted since are the tail at
``rowid >= remembered next_rowid``, and rows were deleted only if
``old count + inserted != new count`` (then the mirror's rowids that the
source no longer has). Mirror rows carry the engine rowid as their sqlite
rowid, so a delete is by rowid. A table the mirror has not seen, or whose
lineage differs (the store was replaced wholesale: restore, rollback
rebuild), goes through the same steps from an empty base — which is the
whole build a first sync does. The source pays nothing for this: no change
log, nothing on the insert path.

Indexes are the ones the table's schema declares (plus its unique key), not
whichever hash indexes the source happened to have built — an MVCC fork
starts with none.
"""

from __future__ import annotations

import sqlite3
from typing import Any, Mapping, NamedTuple, Sequence

from repro.relational.database import RelationalDatabase
from repro.relational.schema import TableSchema
from repro.relational.table import Table


def quote_identifier(name: str) -> str:
    """Double-quote an identifier, escaping embedded quotes."""
    return '"' + name.replace('"', '""') + '"'


class SyncReport(NamedTuple):
    """What one :meth:`SqliteMirror.sync` did."""

    #: ``"full"`` if any table was built from the empty base, else ``"delta"``.
    kind: str
    #: Rows inserted plus rows deleted, per table that changed at all.
    changed: dict[str, int]

    @property
    def rows(self) -> int:
        return sum(self.changed.values())


class SqliteMirror:
    """A SQLite reflection of a :class:`RelationalDatabase`."""

    def __init__(self, path: str = ":memory:") -> None:
        # check_same_thread=False lets the mirror move between reader
        # threads; whoever shares one serializes access to it (the MVCC
        # layer holds the owning version's mirror lock around sync + query).
        self.connection = sqlite3.connect(path, check_same_thread=False)
        self.connection.execute("PRAGMA synchronous = OFF")
        self.connection.execute("PRAGMA journal_mode = MEMORY")
        #: table name -> (lineage, next_rowid, row count) last synced to.
        self._reflected: dict[str, tuple[object, int, int]] = {}
        self._analyzed_rows = 0

    # -- mirroring --------------------------------------------------------------

    def sync(self, source: RelationalDatabase) -> SyncReport:
        """Advance the mirror to ``source`` (schema, rows, indexes).

        ``source`` must not be written to while this runs; an MVCC fork
        never is.
        """
        tables = source.tables()
        reflected: dict[str, tuple[object, int, int]] = {}
        rebuilt = False
        changed: dict[str, int] = {}
        # One sqlite transaction, DDL included: a failure (an int sqlite
        # cannot hold, say) rolls back to the state ``_reflected`` describes.
        with self.connection:
            cursor = self.connection.execute("BEGIN")
            for name in self._reflected.keys() - tables.keys():
                cursor.execute(f"DROP TABLE {quote_identifier(name)}")
            for name, table in tables.items():
                lineage, next_rowid, count = self._reflected.get(name, (None, 0, 0))
                fresh = lineage is not table.lineage or table.next_rowid < next_rowid
                if fresh:
                    rebuilt = True
                    next_rowid = count = 0
                    quoted = quote_identifier(name)
                    columns = ", ".join(map(quote_identifier, table.schema.columns))
                    cursor.execute(f"DROP TABLE IF EXISTS {quoted}")
                    cursor.execute(f"CREATE TABLE {quoted} ({columns})")
                touched = _apply_difference(cursor, name, table, next_rowid, count)
                if fresh:
                    # After the rows: sqlite sorts once instead of descending
                    # the b-tree per row.
                    for statement in _index_ddl(name, table.schema):
                        cursor.execute(statement)
                if touched:
                    changed[name] = touched
                reflected[name] = (table.lineage, table.next_rowid, len(table))
            # Planner statistics, refreshed when the mirrored total has doubled:
            # without them sqlite's join orders for q2/q3 are super-linear.
            total = sum(count for _, _, count in reflected.values())
            if rebuilt or total >= 2 * max(self._analyzed_rows, 1):
                cursor.execute("ANALYZE")
                self._analyzed_rows = total
        self._reflected = reflected
        return SyncReport("full" if rebuilt else "delta", changed)

    # -- queries ----------------------------------------------------------------

    def execute(
        self, sql: str, params: Sequence[Any] | Mapping[str, Any] = ()
    ) -> list[tuple[Any, ...]]:
        """Run SQL with positional (sequence) or named (mapping) parameters."""
        bound = params if isinstance(params, Mapping) else tuple(params)
        cursor = self.connection.execute(sql, bound)
        return [tuple(row) for row in cursor.fetchall()]

    def explain(
        self, sql: str, params: Sequence[Any] | Mapping[str, Any] = ()
    ) -> list[str]:
        bound = params if isinstance(params, Mapping) else tuple(params)
        rows = self.connection.execute(
            "EXPLAIN QUERY PLAN " + sql, bound
        ).fetchall()
        return [str(row[-1]) for row in rows]

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "SqliteMirror":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _apply_difference(
    cursor: sqlite3.Cursor, name: str, table: Table, next_rowid: int, count: int
) -> int:
    """Bring mirrored ``name`` from its remembered state to ``table``'s.

    Deletes go first: an engine update is delete + insert under a new
    rowid, and the unique-key index must not see both rows.
    """
    quoted = quote_identifier(name)
    columns = table.schema.columns
    # sqlite's rowid has three spellings; a user column may shadow some.
    taken = {column.lower() for column in columns}
    rowid = next(a for a in ("rowid", "_rowid_", "oid") if a not in taken)
    inserted = table.rows_from(next_rowid)
    deleted: list[int] = []
    if count + len(inserted) != len(table):
        deleted = table.missing_rowids(
            row[0] for row in cursor.execute(f"SELECT {rowid} FROM {quoted}")
        )
        cursor.executemany(
            f"DELETE FROM {quoted} WHERE {rowid} = ?", ((r,) for r in deleted)
        )
    if inserted:
        names = ", ".join(map(quote_identifier, columns))
        marks = ", ".join("?" * (len(columns) + 1))
        cursor.executemany(
            f"INSERT INTO {quoted} ({rowid}, {names}) VALUES ({marks})",
            ((r, *map(_adapt, row)) for r, row in inserted),
        )
    return len(inserted) + len(deleted)


def _index_ddl(name: str, schema: TableSchema) -> list[str]:
    """CREATE statements for a schema's declared indexes and unique key."""
    quoted = quote_identifier(name)
    statements = []
    for i, columns in enumerate(schema.indexes):
        cols = ", ".join(map(quote_identifier, columns))
        index = quote_identifier(f"idx_{name}_{i}")
        statements.append(f"CREATE INDEX {index} ON {quoted} ({cols})")
    if schema.key:
        cols = ", ".join(map(quote_identifier, schema.key))
        index = quote_identifier(f"key_{name}")
        statements.append(f"CREATE UNIQUE INDEX {index} ON {quoted} ({cols})")
    return statements


def _adapt(value: Any) -> Any:
    """SQLite accepts None/int/float/str/bytes; stringify anything else."""
    if value is None or isinstance(value, (int, float, str, bytes)):
        return value
    return str(value)
