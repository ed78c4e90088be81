"""A named collection of tables — the engine's "database" object."""

from __future__ import annotations

from typing import Iterator

from repro.errors import EngineError, UnknownTableError
from repro.relational.datalog import Program, Row, run_program
from repro.relational.schema import TableSchema
from repro.relational.table import IndexCounters, Table


class RelationalDatabase:
    """Holds tables by name; entry point for DDL, Datalog, and mirroring."""

    def __init__(self, auto_index: bool = True) -> None:
        self._tables: dict[str, Table] = {}
        self.auto_index = auto_index
        #: Where this database's tables, and every fork of them, report
        #: index builds and skipped candidates.
        self.index_counters = IndexCounters()

    # -- DDL ------------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self._tables:
            raise EngineError(f"table {schema.name!r} already exists")
        table = Table(schema, auto_index=self.auto_index)
        table.lineage.counters = self.index_counters
        self._tables[schema.name] = table
        return table

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(f"unknown table {name!r}") from None

    def tables(self) -> dict[str, Table]:
        return dict(self._tables)

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    # -- copy-on-write forks -----------------------------------------------------

    def snapshot_fork(self) -> "RelationalDatabase":
        """A database whose tables are copy-on-write forks of this one's.

        O(tables) to build: the per-table row dicts stay shared until this
        side mutates them, and the forks probe this side's indexes (see
        :meth:`Table.snapshot_fork`). The MVCC layer uses this to freeze a
        queryable version of the whole store.
        """
        fork = RelationalDatabase.__new__(RelationalDatabase)
        fork.auto_index = self.auto_index
        fork.index_counters = self.index_counters
        fork._tables = {
            name: table.snapshot_fork() for name, table in self._tables.items()
        }
        return fork

    # -- stats -------------------------------------------------------------------

    def total_rows(self) -> int:
        """Total row count over all tables — the paper's ``|R*|`` size measure."""
        return sum(len(t) for t in self._tables.values())

    def row_counts(self) -> dict[str, int]:
        return {name: len(t) for name, t in sorted(self._tables.items())}

    def index_stats(self) -> dict[str, int]:
        """Index builds and skipped candidates so far (forks included), and
        the deleted rowids still in buckets because a fork may need them."""
        counters = self.index_counters
        return {
            "builds_shared": counters.builds["shared"],
            "builds_private": counters.builds["private"],
            "stale_skipped": counters.stale_skipped,
            "pending_removals": sum(
                len(t.lineage.pending) for t in self._tables.values()
            ),
        }

    # -- queries -----------------------------------------------------------------

    def run(self, program: Program) -> set[Row]:
        """Evaluate a non-recursive Datalog program; see :func:`run_program`."""
        result, _ = run_program(self._tables, program)
        return result
