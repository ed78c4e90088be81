"""Store-parameterized DML application — the one apply path.

The BeliefSQL DML semantics (Sect. 5.3: insert/delete on explicit
annotations, update re-asserting matched entailed tuples) are applied
against an *explicit* :class:`~repro.storage.store.BeliefStore` rather
than a DBMS instance, and :func:`apply_compiled` is the only way a
compiled statement reaches a store. It has two callers:

* :meth:`BeliefDBMS._execute_dml_row <repro.bdms.bdms.BeliefDBMS>` applies
  to the live store for autocommit, ``execute_batch``,
  ``commit_transaction`` and the programmatic ``BeliefDBMS.insert`` /
  ``delete``, which run the prepared statement :func:`tuple_sql` names
  (WAL logging, the strict-mode error and the one epoch bump per
  statement, batch or commit are layered on by the DBMS);
* the transaction read view (:meth:`~repro.bdms.transaction.Transaction
  .read_version`) replays the session's staged statements onto a private
  copy-on-write fork so in-transaction selects read through the write
  buffer — read-your-own-writes without touching the shared store.

All functions here are non-strict: a rejected insert returns ``False`` /
counts zero rows instead of raising (strictness is a DBMS policy, not a
store semantic).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.beliefsql.compiler import (
    CompiledDelete,
    CompiledInsert,
    CompiledUpdate,
)
from repro.core.paths import validate_path
from repro.core.schema import Value
from repro.core.statements import NEGATIVE, POSITIVE, Sign
from repro.storage.updates import delete_tuple, insert_tuple

if TYPE_CHECKING:  # pragma: no cover — type-only import (avoids a cycle)
    from repro.storage.store import BeliefStore


def tuple_sql(
    verb: str, depth: int, relation: str, arity: int, sign: Sign = POSITIVE
) -> str:
    """The parameterized ``insert`` / ``delete`` of one tuple: the path's
    ``depth`` users, then the ``arity`` values, all bound as ``?``.

    ``relation`` is spliced into the text, so callers pass only a name the
    schema holds.
    """
    head = "insert into" if verb == "insert" else "delete from"
    marks = ", ".join("?" * arity)
    not_ = "not " if sign is NEGATIVE else ""
    return f"{head} {'BELIEF ? ' * depth}{not_}{relation} values ({marks})"


def apply_insert(store: "BeliefStore", op: CompiledInsert) -> bool:
    """Insert one explicit belief statement; ``False`` on reject/duplicate."""
    path = tuple(store.resolve_user(u) for u in op.path)
    t = store.schema.tuple(op.relation, *op.values)
    return insert_tuple(store, path, t, op.sign)


def apply_delete(store: "BeliefStore", op: CompiledDelete) -> int:
    """Delete the *explicit* statements matching the WHERE clause, or the
    one a ``values`` list names (that cell alone is read)."""
    path = tuple(store.resolve_user(u) for u in op.path)
    if op.values is not None:
        t = store.schema.tuple(op.relation, *op.values)
        return 1 if delete_tuple(store, path, t, op.sign) else 0
    validate_path(path)  # an invalid path is an error, as for insert
    doomed = [
        t for t, sign in store.explicit_signs(path, op.relation)
        if sign is op.sign and op.predicate(t)
    ]
    count = 0
    for t in sorted(doomed, key=repr):
        if delete_tuple(store, path, t, op.sign):
            count += 1
    return count


def apply_update(store: "BeliefStore", op: CompiledUpdate) -> int:
    """Update beliefs: re-assert matching tuples with new attribute values.

    Matching considers the *entailed* world (so updating a default belief
    turns it into an explicit one); matched explicit statements are
    replaced, matched implicit ones are overridden by the new explicit
    statement (Sect. 5.3 "delete operations follow a similar semantics").
    """
    path = tuple(store.resolve_user(u) for u in op.path)
    world = store.entailed_world(path)
    pool = world.positives if op.sign is POSITIVE else world.negatives
    matches = [t for t in pool if t.relation == op.relation and op.predicate(t)]
    explicit = store.explicit_signs(path, op.relation)
    count = 0
    for t in sorted(matches, key=repr):
        replacement = store.schema.replace(t, **dict(op.assignments))
        if replacement == t:
            continue
        if (t, op.sign) in explicit:
            delete_tuple(store, path, t, op.sign)
        if insert_tuple(store, path, replacement, op.sign):
            count += 1
    return count


def apply_compiled(
    store: "BeliefStore",
    compiled: CompiledInsert | CompiledDelete | CompiledUpdate,
    params: Sequence[Value] = (),
) -> int:
    """Bind one DML parameter vector and apply it; rows affected."""
    op = compiled.bind(params)
    if isinstance(op, CompiledInsert):
        return 1 if apply_insert(store, op) else 0
    if isinstance(op, CompiledDelete):
        return apply_delete(store, op)
    assert isinstance(op, CompiledUpdate)
    return apply_update(store, op)
