"""SQLite mirror backend.

The paper runs its translated queries on a commercial RDBMS (SQL Server 2005
via JDBC). The stdlib ``sqlite3`` plays that role here: the internal tables of
a belief store are mirrored into a SQLite database, and the Datalog program
the engine runs for a query is rendered into one SQL statement
(:func:`program_sql`) that executes there — one translation of Algorithm 1,
two executors.

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

import itertools
import sqlite3
from typing import Any, Mapping, NamedTuple, Sequence

from repro.errors import EngineError
from repro.relational.database import RelationalDatabase
from repro.relational.datalog import ANY, Atom, Param, Program, Rule, Var
from repro.relational.expressions import And, Cmp, Const, Expr, Not, Or, Ref
from repro.relational.schema import TableSchema
from repro.relational.table import Table


def quote_identifier(name: str) -> str:
    """Double-quote an identifier, escaping embedded quotes."""
    return '"' + name.replace('"', '""') + '"'


class ProgramSQL(NamedTuple):
    """A Datalog program as one SQL statement (:func:`program_sql`)."""

    sql: str
    #: What ``?n`` stands for, at ``n - 1``: a constant, or a :class:`Param`
    #: filled from the values of a run.
    slots: tuple[Any, ...]
    #: The answer's arity. A 0-ary head selects the constant 1.
    width: int

    def parameters(self, values: Sequence[Any]) -> list[Any]:
        """The statement's parameters for a run with ``values``."""
        return [
            _adapt(values[slot.index]) if type(slot) is Param else slot
            for slot in self.slots
        ]


_SQL_OPS = {"=": "=", "!=": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def program_sql(program: Program, tables: Mapping[str, Table]) -> ProgramSQL:
    """``program`` over ``tables`` as one SQL statement with the answer of
    :meth:`~repro.relational.datalog.PreparedProgram.run`: the union of
    what the rules deriving the last rule's head derive.

    Every other head is a temporary: a common table expression, columns
    ``c0, c1, ...``, the union of the rules deriving it, which must all
    come before any rule that reads it. A rule is a ``SELECT DISTINCT`` (an
    arm of a ``UNION`` where rules share a head) over its body atoms, one
    alias each named after its table, with its conditions, and a negated
    atom as ``NOT EXISTS``, whose local variables name the columns of the
    row it finds. Every constant and :class:`Param` is a ``?n`` parameter,
    never spliced into the text.
    """
    rules = list(program)
    for n, rule in enumerate(rules):
        read = {atom.table for atom in rule.body}
        read.update(negated.atom.table for negated in rule.negated)
        if rule.head.table in tables or read & {r.head.table for r in rules[n:]}:
            raise EngineError(
                f"no SQL for {rule}: it writes a base table or reads a table"
                " derived after it"
            )
    columns = {name: table.schema.columns for name, table in tables.items()}
    numbers: dict[tuple[type, Any], int] = {}  # (type, constant) -> its ?n
    aliases = itertools.count()

    def value(term: Any) -> str:
        key = (type(term), term)
        if key not in numbers:
            numbers[key] = len(numbers) + 1
        return f"?{numbers[key]}"

    def unify(atom: Atom, alias: str, scope: dict[str, str]) -> list[str]:
        """Equalities for ``atom``'s terms; a variable not yet in ``scope``
        names its column."""
        tests = []
        for column, term in zip(columns[atom.table], atom.terms, strict=True):
            if term is ANY:
                continue
            ref = f"{alias}.{quote_identifier(column)}"
            if type(term) is not Var:
                tests.append(f"{ref} = {value(term)}")
            elif term.name in scope:
                tests.append(f"{ref} = {scope[term.name]}")
            else:
                scope[term.name] = ref
        return tests

    def source(atom: Atom) -> tuple[str, str]:
        alias = quote_identifier(f"{atom.table}_{next(aliases)}")
        return alias, f"{quote_identifier(atom.table)} AS {alias}"

    def expr(node: Expr, scope: dict[str, str]) -> str:
        kind = type(node)
        if kind is Ref:
            if node.name not in scope:
                raise EngineError(f"unbound name {node.name!r} in expression")
            return scope[node.name]
        if kind is Const:
            return value(node.value)
        if kind is Cmp:
            left, right = expr(node.left, scope), expr(node.right, scope)
            return f"({left} {_SQL_OPS[node.op]} {right})"
        if kind is Not:
            return f"(NOT {expr(node.item, scope)})"
        if kind is And or kind is Or:
            if not node.items:
                return "1" if kind is And else "0"
            joiner = " AND " if kind is And else " OR "
            return "(" + joiner.join(expr(item, scope) for item in node.items) + ")"
        raise EngineError(f"no SQL for condition {node}")

    def select(rule: Rule, distinct: bool) -> str:
        bound: dict[str, str] = {}
        sources, where = [], []
        for atom in rule.body:
            alias, from_item = source(atom)
            sources.append(from_item)
            where += unify(atom, alias, bound)
        where += [expr(condition, bound) for condition in rule.conditions]
        for negated in rule.negated:
            alias, from_item = source(negated.atom)
            scope = dict(bound)
            tests = unify(negated.atom, alias, scope)
            tests += [expr(condition, scope) for condition in negated.conditions]
            found = f"SELECT 1 FROM {from_item}"
            where.append(f"NOT EXISTS ({found}{_clause(' WHERE ', tests)})")
        head = [
            bound[term.name] if type(term) is Var else value(term)
            for term in rule.head.terms
        ]
        return (
            f"SELECT {'DISTINCT ' if distinct else ''}{', '.join(head) or '1'}"
            + _clause(" FROM ", sources, ", ")
            + _clause(" WHERE ", where)
        )

    def union(head: str) -> str:
        arms = [rule for rule in rules if rule.head.table == head]
        return " UNION ".join(select(rule, len(arms) == 1) for rule in arms)

    final = rules[-1].head
    temporaries = []
    for rule in rules:
        head = rule.head
        if head.table != final.table and head.terms and head.table not in columns:
            columns[head.table] = tuple(f"c{i}" for i in range(len(head.terms)))
            names = ", ".join(map(quote_identifier, columns[head.table]))
            temporaries.append(
                f"{quote_identifier(head.table)}({names}) AS ({union(head.table)})"
            )
    sql = _clause("WITH ", temporaries, ", ") + (" " if temporaries else "")
    sql += union(final.table)
    slots = tuple(term if type(term) is Param else _adapt(term) for _, term in numbers)
    return ProgramSQL(sql, slots, len(final.terms))


def _clause(keyword: str, items: Sequence[str], joiner: str = " AND ") -> str:
    return keyword + joiner.join(items) if items else ""


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
