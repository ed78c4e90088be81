"""SQL generation for BCQs (the paper's "translating ... to SQL" step).

An independent implementation of Algorithm 1 that emits a single parameterized
``SELECT DISTINCT`` over the mirrored internal schema: one derived table per
modal subgoal (the ``T_i``), the users catalog for user atoms, and the
positive/negative conditions in the outer ``WHERE``. Cross-checked in tests
against both the Datalog path and the naive evaluator.

Generated shape, for a subgoal with belief path of length d over relation R::

    (SELECT e0."uid" AS p0, ..., e{d-1}."uid" AS p{d-1},
            v."s" AS sgn, r."<key>" AS a0, ..., r."<att_l>" AS a{l-1}
       FROM "E" e0, ..., "E" e{d-1}, "v_R" v, "star_R" r
      WHERE e0."wid1" = 0 AND e1."wid1" = e0."wid2" AND ...
        AND v."wid" = e{d-1}."wid2" AND r."tid" = v."tid" [...pushdowns])
    AS T{i}

Constants are always passed as ``?`` parameters, never spliced into the SQL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.statements import POSITIVE
from repro.errors import QueryError, UnknownUserError
from repro.query.bcq import BCQuery, ModalSubgoal, Term, is_var
from repro.relational.sqlite_backend import quote_identifier as q
from repro.storage.internal_schema import (
    ROOT_WID,
    SIGN_NEG,
    SIGN_POS,
    U_TABLE,
    star_table_name,
    v_table_name,
)
from repro.storage.store import BeliefStore


def _resolve_path_constants(
    store: BeliefStore, path: tuple[Term, ...]
) -> tuple[Term, ...]:
    """Resolve user-name constants in a path to uids; unknowns pass through.

    An unknown constant simply joins to nothing in ``E`` (no such user, hence
    no world), which matches Def. 14: no valuation exists for it.
    """
    resolved: list[Term] = []
    for term in path:
        if is_var(term):
            resolved.append(term)
        else:
            try:
                resolved.append(store.resolve_user(term))
            except UnknownUserError:
                resolved.append(term)
    return tuple(resolved)


@dataclass
class GeneratedSQL:
    """A generated statement with its (named) parameters; ``sql`` None means
    provably empty (adjacent equal constants in a path)."""

    sql: str | None
    params: dict[str, Any] = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return self.sql is None


class _SqlBuilder:
    def __init__(self, store: BeliefStore, query: BCQuery) -> None:
        self.store = store
        self.query = query
        #: named parameters — order-independent, so derived-table parameters
        #: and outer WHERE parameters can be produced in any sequence.
        self.params: dict[str, Any] = {}
        self.from_items: list[str] = []
        self.where: list[str] = []
        #: first binding site for each query variable: var name -> SQL expr
        self.binding: dict[str, str] = {}

    # -- parameters and term rendering -----------------------------------

    def param(self, value: Any) -> str:
        name = f"p{len(self.params)}"
        self.params[name] = value
        return f":{name}"

    def term_sql(self, term: Term) -> str:
        """Render a *bound* term: a bound variable's column or a parameter."""
        if is_var(term):
            if term.name not in self.binding:
                raise QueryError(
                    f"variable {term.name} referenced before any binding site"
                )
            return self.binding[term.name]
        return self.param(term)

    def bind_or_check(self, term: Term, expr: str) -> None:
        """Make ``expr`` the binding site of a variable, or emit an equality."""
        if is_var(term):
            if term.name in self.binding:
                self.where.append(f"{self.binding[term.name]} = {expr}")
            else:
                self.binding[term.name] = expr
        else:
            self.where.append(f"{expr} = {self.param(term)}")

    # -- subgoals ------------------------------------------------------------

    def add_subgoal(self, index: int, subgoal: ModalSubgoal) -> bool:
        path = _resolve_path_constants(self.store, subgoal.path)
        relation = self.store.schema.relation(subgoal.relation)
        arity = relation.arity
        alias = f"T{index}"
        inner_from: list[str] = []
        inner_where: list[str] = []
        select: list[str] = []

        previous_wid = None
        for k in range(len(path)):
            e_alias = f"e{k}"
            inner_from.append(f'{q("E")} {e_alias}')
            if previous_wid is None:
                inner_where.append(f'{e_alias}."wid1" = {ROOT_WID}')
            else:
                inner_where.append(f'{e_alias}."wid1" = {previous_wid}')
            select.append(f'{e_alias}."uid" AS p{k}')
            previous_wid = f'{e_alias}."wid2"'
        world_expr = previous_wid if previous_wid is not None else str(ROOT_WID)

        inner_from.append(f"{q(v_table_name(relation.name))} v")
        inner_from.append(f"{q(star_table_name(relation.name))} r")
        inner_where.append(f'v."wid" = {world_expr}')
        inner_where.append('r."tid" = v."tid"')
        select.append('v."s" AS sgn')
        for j, attr in enumerate(relation.attributes):
            select.append(f"r.{q(attr)} AS a{j}")

        # Pushdowns into T_i: path constants are always safe; sign and
        # attribute constants only for positive subgoals; the key constant
        # also for negative ones (unstated negatives share the key).
        for k, term in enumerate(path):
            if not is_var(term):
                inner_where.append(f'e{k}."uid" = {self.param(term)}')
        if subgoal.sign is POSITIVE:
            inner_where.append(f'v."s" = {self.param(SIGN_POS)}')
            for j, term in enumerate(subgoal.args):
                if not is_var(term):
                    attr = relation.attributes[j]
                    inner_where.append(f"r.{q(attr)} = {self.param(term)}")
        else:
            key_term = subgoal.args[0]
            if not is_var(key_term):
                inner_where.append(f'v."key" = {self.param(key_term)}')

        inner_sql = (
            "SELECT " + ", ".join(select)
            + " FROM " + ", ".join(inner_from)
            + " WHERE " + " AND ".join(inner_where)
        )
        self.from_items.append(f"({inner_sql}) AS {alias}")

        # Outer bindings and conditions.
        for k, term in enumerate(path):
            if is_var(term):
                self.bind_or_check(term, f"{alias}.p{k}")
        self._adjacency_conditions(alias, path)

        if subgoal.sign is POSITIVE:
            for j, term in enumerate(subgoal.args):
                if is_var(term):
                    self.bind_or_check(term, f"{alias}.a{j}")
            return True

        # Negative subgoal: unify the key, then the Prop. 7 disjunction.
        key_term = subgoal.args[0]
        if is_var(key_term):
            self.bind_or_check(key_term, f"{alias}.a0")
        stated = [f"{alias}.sgn = {self.param(SIGN_NEG)}"]
        for j in range(1, arity):
            stated.append(f"{alias}.a{j} = {self.term_sql_deferred(subgoal.args[j])}")
        differs = [
            f"{alias}.a{j} <> {self.term_sql_deferred(subgoal.args[j])}"
            for j in range(1, arity)
        ]
        unstated = [f"{alias}.sgn = {self.param(SIGN_POS)}"]
        if differs:
            unstated.append("(" + " OR ".join(differs) + ")")
        else:
            unstated.append("1 = 0")  # arity-1: no unstated negatives exist
        self.where.append(
            "((" + " AND ".join(stated) + ") OR (" + " AND ".join(unstated) + "))"
        )
        return True

    def term_sql_deferred(self, term: Term) -> str:
        """Like :meth:`term_sql` but tolerates variables bound later.

        Negative-subgoal conditions may reference variables whose binding
        site is a *later* subgoal or user atom; we leave a placeholder token
        and patch it after all binding sites exist.
        """
        if is_var(term) and term.name not in self.binding:
            token = f"\x00VAR:{term.name}\x00"
            return token
        return self.term_sql(term)

    def _adjacency_conditions(self, alias: str, path: tuple[Term, ...]) -> bool:
        for k in range(len(path) - 1):
            left, right = path[k], path[k + 1]
            if not is_var(left) and not is_var(right):
                if left == right:
                    return False
                continue
            left_sql = f"{alias}.p{k}" if is_var(left) else self.param(left)
            right_sql = f"{alias}.p{k + 1}" if is_var(right) else self.param(right)
            self.where.append(f"{left_sql} <> {right_sql}")
        return True


def generate_sql(store: BeliefStore, query: BCQuery) -> GeneratedSQL:
    """Generate a parameterized SQL statement answering ``query``.

    Execute against a :class:`~repro.relational.sqlite_backend.SqliteMirror`
    synced from the store (eager mode). Returns an empty marker when the query
    is provably empty (adjacent equal path constants).
    """
    query.check_safe(store.schema)
    for subgoal in query.subgoals:
        path = _resolve_path_constants(store, subgoal.path)
        for left, right in zip(path, path[1:]):
            same_const = not is_var(left) and not is_var(right) and left == right
            same_var = is_var(left) and is_var(right) and left.name == right.name
            if same_const or same_var:
                return GeneratedSQL(None)

    builder = _SqlBuilder(store, query)
    for i, subgoal in enumerate(query.subgoals):
        builder.add_subgoal(i, subgoal)
    for j, atom in enumerate(query.user_atoms):
        alias = f"U{j}"
        builder.from_items.append(f"{q(U_TABLE)} {alias}")
        builder.bind_or_check(atom.uid, f'{alias}."uid"')
        builder.bind_or_check(atom.name, f'{alias}."name"')
    _OPS = {"=": "=", "!=": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
    for pred in query.predicates:
        builder.where.append(
            f"{builder.term_sql_deferred(pred.left)} {_OPS[pred.op]} "
            f"{builder.term_sql_deferred(pred.right)}"
        )

    head_exprs = []
    for i, term in enumerate(query.head):
        head_exprs.append(f"{builder.term_sql_deferred(term)} AS h{i}")
    sql = (
        "SELECT DISTINCT " + ", ".join(head_exprs)
        + " FROM " + ", ".join(builder.from_items)
    )
    if builder.where:
        sql += " WHERE " + " AND ".join(builder.where)

    # Patch deferred variable references now that all binding sites exist.
    for name, expr in builder.binding.items():
        sql = sql.replace(f"\x00VAR:{name}\x00", expr)
    if "\x00VAR:" in sql:
        missing = sorted(
            {part.split("\x00")[0] for part in sql.split("\x00VAR:")[1:]}
        )
        raise QueryError(f"variables with no binding site: {missing}")
    return GeneratedSQL(sql, builder.params)


def evaluate_sql(store: BeliefStore, query: BCQuery, mirror) -> set[tuple]:
    """Generate SQL for ``query`` and run it on a synced SQLite mirror."""
    generated = generate_sql(store, query)
    if generated.is_empty:
        return set()
    assert generated.sql is not None
    return set(map(tuple, mirror.execute(generated.sql, generated.params)))
