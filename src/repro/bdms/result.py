"""Typed statement results.

Every statement executed through the DB-API surface of :mod:`repro.api` —
and through :meth:`repro.bdms.bdms.BeliefDBMS.execute_prepared` underneath
it — returns a :class:`Result`:

* ``rows``       — result tuples (``[]`` for DML), in :func:`natural_order`;
* ``columns``    — column names derived from the select list (``()`` for DML);
* ``rowcount``   — rows returned (select) or statements affected (DML;
  an insert is 1 when accepted, 0 when rejected in non-strict mode);
* ``status``     — a PostgreSQL-style tag such as ``"SELECT 3"`` or
  ``"INSERT 1"``;
* ``elapsed_ms`` — wall-clock execution time (excluded from equality, so
  embedded and remote runs of the same workload compare equal).

Convenience accessors keep call sites terse: ``result.ok`` for write
acceptance checks, ``result.scalar()`` for single-value queries, and
iteration/indexing straight over the rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Collection, Iterator, Literal, Sequence, TypeVar, overload

ResultKind = Literal["select", "insert", "delete", "update", "commit"]

_T = TypeVar("_T")

#: Statement kinds in wire order; used to validate payloads. ``"commit"``
#: is the aggregate a transaction commit returns (rowcount sums the
#: committed statements' effects).
RESULT_KINDS: tuple[ResultKind, ...] = (
    "select", "insert", "delete", "update", "commit",
)


def natural_order(rows: Collection[tuple]) -> list[tuple]:
    """A select's rows sorted by their values (``1, 2, 10``), by ``repr``
    where one column holds values that do not compare (``3`` and ``'x'``).
    Either way the order is the answer's own, so every endpoint returns the
    same rows in the same order."""
    try:
        return sorted(rows)
    except TypeError:
        return sorted(rows, key=repr)


@dataclass
class Result:
    """The typed outcome of one BeliefSQL statement."""

    kind: ResultKind
    rows: list[tuple[Any, ...]]
    columns: tuple[str, ...]
    rowcount: int
    status: str
    elapsed_ms: float = field(default=0.0, compare=False)

    # ------------------------------------------------------------ conveniences

    @property
    def ok(self) -> bool:
        """True when the statement did something: a select always, a commit
        always (an empty transaction commits fine), a write when it
        affected at least one statement (an accepted insert, a
        delete/update that matched). A *staged* in-transaction write
        (``rowcount == -1``: the effect is unknowable before commit) is
        ok — staging succeeded; the commit's own Result reports the
        outcome."""
        if self.kind in ("select", "commit"):
            return True
        return self.rowcount != 0

    @overload
    def scalar(self) -> Any | None: ...

    @overload
    def scalar(self, default: _T) -> Any | _T: ...

    def scalar(self, default: Any = None) -> Any:
        """First column of the first row; ``default`` when there are no rows."""
        if self.rows:
            return self.rows[0][0]
        return default

    def fetchone(self) -> tuple[Any, ...] | None:
        return self.rows[0] if self.rows else None

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        """Always truthy — ``if result:`` must not alias row count.

        Without this, ``__len__`` would make every DML Result (rows=[])
        falsy even when the write succeeded; use ``ok`` or ``rowcount``
        for outcome checks, ``len(result)`` for row counts.
        """
        return True

    def __getitem__(self, index: int) -> tuple[Any, ...]:
        return self.rows[index]

    # -------------------------------------------------------------- adapters

    def to_wire(self) -> dict[str, Any]:
        """A JSON-serializable form (rows become lists; see ``from_wire``)."""
        return {
            "kind": self.kind,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "rowcount": self.rowcount,
            "status": self.status,
            "elapsed_ms": self.elapsed_ms,
        }

    @classmethod
    def from_wire(
        cls, payload: dict[str, Any], rows: Sequence[Sequence[Any]] | None = None
    ) -> "Result":
        """Rebuild a Result from a wire payload.

        ``rows`` overrides the payload's own rows — the remote cursor passes
        the fully paged row set here while the payload carries only the
        first page.
        """
        kind = payload["kind"]
        if kind not in RESULT_KINDS:
            raise ValueError(f"unknown result kind {kind!r}")
        raw = payload["rows"] if rows is None else rows
        return cls(
            kind=kind,
            rows=[tuple(row) for row in raw],
            columns=tuple(payload["columns"]),
            rowcount=int(payload["rowcount"]),
            status=str(payload["status"]),
            elapsed_ms=float(payload.get("elapsed_ms", 0.0)),
        )
