"""SQL for the sqlite backend (the paper's "translating ... to SQL" step).

A query has one translation: the Datalog program the engine runs
(:class:`~repro.query.translate.TranslatedQuery` — Algorithm 1's listing,
unfolded and prepared once per variant). The sqlite backend runs that same
program rendered into one SQL statement over the mirrored internal schema
(:func:`~repro.relational.sqlite_backend.program_sql`), once per variant and
kept beside it. An execution makes the run's value vector on the store it
reads (:class:`~repro.query.translate.Binding`), adds the statement's
constants and runs it on the mirror. Constants are always passed as ``?n``
parameters, never spliced into the SQL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.query.translate import Query, TranslatedQuery
from repro.storage.store import BeliefStore


@dataclass(frozen=True)
class GeneratedSQL:
    """A statement with its positional parameters; ``sql`` None means
    provably empty (adjacent equal users in a path). ``width`` is the
    answer's arity (a 0-ary answer's SQL selects the constant 1)."""

    sql: str | None
    params: Sequence[Any] = ()
    width: int = 0

    @property
    def is_empty(self) -> bool:
        return self.sql is None


def generate_sql(
    store: BeliefStore, query: Query | TranslatedQuery, params: Sequence[Any] = ()
) -> GeneratedSQL:
    """The SQL answering ``query`` — a BCQ or a bound ``WITH`` select,
    translated for this one call, or a prepared select's
    :class:`TranslatedQuery` run with ``params`` — on a
    :class:`~repro.relational.sqlite_backend.SqliteMirror` synced from
    ``store``. Returns an empty marker when the answer is provably empty.
    """
    if not isinstance(query, TranslatedQuery):
        query = TranslatedQuery(query)
    rendered, values = query.sql(store, params)
    if rendered is None:
        return GeneratedSQL(None)
    return GeneratedSQL(rendered.sql, rendered.parameters(values), rendered.width)


def evaluate_sql(
    store: BeliefStore,
    query: Query | TranslatedQuery,
    mirror,
    params: Sequence[Any] = (),
) -> set[tuple]:
    """Run ``query``'s SQL (:func:`generate_sql`) on a mirror synced from
    ``store``; returns the answer set."""
    generated = generate_sql(store, query, params)
    if generated.is_empty:
        return set()
    rows = mirror.execute(generated.sql, generated.params)
    return set(rows) if generated.width else {() for _ in rows}
