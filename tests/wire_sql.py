"""One tuple written over the wire as BeliefSQL.

A remote client writes a single belief statement with ``execute_prepared``:
``insert into [BELIEF ?]* [not] R values (...)`` or the same ``delete from``
form, the text :func:`repro.bdms.dml.tuple_sql` builds for
``BeliefDBMS.insert`` / ``delete`` too. :func:`tuple_write` builds the
``(sql, params)`` pair so a test can say which tuple, path and sign it
means and pass the pair to a blocking or an asyncio client alike.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.bdms.dml import tuple_sql
from repro.core.statements import Sign


def tuple_write(
    verb: str,
    relation: str,
    values: Sequence[Any],
    path: Sequence[Any] = (),
    sign: str = "+",
) -> tuple[str, list[Any]]:
    """``(sql, params)`` inserting (``verb="insert"``) or deleting one
    tuple at ``path`` — ``()`` is the session's default world, which is
    the root only when no user is logged in — with ``sign`` ``+`` or
    ``-``."""
    sql = tuple_sql(verb, len(path), relation, len(values), Sign.coerce(sign))
    return sql, [*path, *values]
