"""Table schemas for the in-memory relational engine.

The engine is deliberately simple — named columns, optional unique key,
dynamic value typing (like SQLite) — because the paper's representation only
needs selections, equi-joins, small aggregations (``max`` in Alg. 3), and
insert/delete. Uniqueness of the declared key is enforced on insert, matching
the paper's remark that "the internal key constraint is only on this surrogate
key" (Sect. 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SchemaError, UnknownColumnError


@dataclass(frozen=True)
class TableSchema:
    """A named table with ordered columns and an optional unique key.

    ``key`` is a tuple of column names whose combined value must be unique
    across rows (``()``/``None`` disables the constraint). ``indexes``
    declares the secondary indexes the table's access paths rely on: the
    engine builds them as hash indexes at ``create_table`` (every fork of
    the table probes those) and the sqlite mirror creates exactly these.
    """

    name: str
    columns: tuple[str, ...]
    key: tuple[str, ...] = ()
    indexes: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.columns, list):
            object.__setattr__(self, "columns", tuple(self.columns))
        if isinstance(self.key, list):
            object.__setattr__(self, "key", tuple(self.key))
        if self.key is None:
            object.__setattr__(self, "key", ())
        if not self.columns:
            raise SchemaError(f"table {self.name!r} needs at least one column")
        if len(set(self.columns)) != len(self.columns):
            raise SchemaError(f"table {self.name!r} has duplicate columns")
        for col in self.key:
            if col not in self.columns:
                raise SchemaError(
                    f"key column {col!r} not among columns of {self.name!r}"
                )
        object.__setattr__(
            self, "indexes", tuple(tuple(index) for index in self.indexes)
        )
        for col in (col for index in self.indexes for col in index):
            if col not in self.columns:
                raise SchemaError(
                    f"index column {col!r} not among columns of {self.name!r}"
                )

    @property
    def arity(self) -> int:
        return len(self.columns)

    def column_index(self, column: str) -> int:
        try:
            return self.columns.index(column)
        except ValueError:
            raise UnknownColumnError(
                f"table {self.name!r} has no column {column!r}"
            ) from None

    def column_indexes(self, columns: tuple[str, ...]) -> tuple[int, ...]:
        return tuple(self.column_index(c) for c in columns)

    @property
    def key_indexes(self) -> tuple[int, ...]:
        return self.column_indexes(self.key)
