"""Compiling BeliefSQL ASTs to belief conjunctive queries and DML operations.

``select`` compiles to a :class:`BCQuery` (Def. 13): every ``from`` item
becomes a modal subgoal (or a user atom for the users catalog); equality
conditions *unify* columns into shared query variables — exactly how the
paper's Example 18 rewrites its BeliefSQL query — while other comparisons
become arithmetic predicates. ``insert``/``delete``/``update`` compile to
plain descriptors the BDMS executes against the store.

``?`` placeholders flow through compilation as opaque constants, so a
statement is parsed and compiled *once* and then bound to many parameter
vectors: :func:`compile_select_prepared` returns a :class:`CompiledSelect`
whose :meth:`~CompiledSelect.bind` substitutes parameters into the compiled
query (plus deferred equality constraints the union-find could not decide
without values); the DML descriptors each carry a ``bind`` of their own.
A compiled select also owns its physical plan: its query is translated
once, placeholders kept as :class:`~repro.relational.datalog.Param` s
(:class:`~repro.query.translate.TranslatedQuery`), so executing it
(``run``) is making the value vector plus running the held plans on the
engine, or the SQL rendered from them on a sqlite mirror.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.beliefsql.ast import (
    BeliefSpec,
    ColumnRef,
    Condition,
    DeleteStatement,
    FromItem,
    InsertStatement,
    Literal,
    Operand,
    Placeholder,
    SelectStatement,
    UpdateStatement,
    check_parameters,
    statement_placeholders,
)
from repro.core.schema import ExternalSchema, GroundTuple
from repro.core.statements import NEGATIVE, POSITIVE, Sign
from repro.errors import BeliefSQLCompileError, ParameterBindingError
from repro.query.bcq import (
    Arith,
    BCQuery,
    Comparison,
    LifecycleSelect,
    ModalSubgoal,
    Term,
    UserAtom,
    Variable,
)
from repro.query.sql_gen import evaluate_sql
from repro.query.translate import TranslatedQuery, evaluate_translated
from repro.relational.datalog import Param
from repro.relational.expressions import compare
from repro.storage.store import BeliefStore


def _bind_term(term: Any, params: tuple[Any, ...]) -> Any:
    if isinstance(term, Placeholder):
        return params[term.index]
    return term


# ----------------------------------------------------------------- union-find

class _Classes:
    """Union-find over column slots, with constants per class.

    A class may collect several constants when placeholders are involved
    (e.g. ``S.sid = ? and S.sid = 's1'``); whether they agree is only
    decidable at bind time, so multi-constant classes surface as deferred
    *constraints* on the compiled query. Two distinct non-placeholder
    constants in one class remain an immediate (param-independent)
    contradiction.
    """

    def __init__(self) -> None:
        self._parent: dict[str, str] = {}
        self._constants: dict[str, list[Any]] = {}
        self.contradiction = False

    def slot(self, key: str) -> str:
        if key not in self._parent:
            self._parent[key] = key
        return self.find(key)

    def find(self, key: str) -> str:
        root = key
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[key] != root:
            self._parent[key], key = root, self._parent[key]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.slot(a), self.slot(b)
        if ra == rb:
            return
        self._parent[rb] = ra
        for value in self._constants.pop(rb, []):
            self.bind_constant(ra, value)

    def bind_constant(self, key: str, value: Any) -> None:
        root = self.slot(key)
        constants = self._constants.setdefault(root, [])
        if any(value == seen for seen in constants):
            return
        constants.append(value)
        concrete = [c for c in constants if not isinstance(c, Placeholder)]
        if len(concrete) > 1:
            self.contradiction = True

    def constant_of(self, key: str) -> tuple[bool, Any]:
        """Representative constant: a concrete value if any, else the first
        placeholder (substituted at bind time)."""
        constants = self._constants.get(self.slot(key), [])
        for value in constants:
            if not isinstance(value, Placeholder):
                return True, value
        if constants:
            return True, constants[0]
        return False, None

    def deferred_constraints(self) -> list[tuple[Any, ...]]:
        """Classes whose constants must be checked for equality at bind time."""
        return [
            tuple(constants)
            for constants in self._constants.values()
            if len(constants) > 1
        ]


# ----------------------------------------------------------------- select

def select_columns(stmt: SelectStatement) -> tuple[str, ...]:
    """Result column names for a select list.

    Bare attribute names, qualified as ``alias.column`` only where the bare
    name would be ambiguous in this select list.
    """
    bare = [c.column for c in stmt.columns]
    return tuple(
        f"{c.alias}.{c.column}" if bare.count(c.column) > 1 else c.column
        for c in stmt.columns
    )


def _params(count: int) -> tuple[Param, ...]:
    """What a template's placeholders become: the translation's Params."""
    return tuple(map(Param, range(count)))


def _substitute_query(query: BCQuery, params: tuple[Any, ...]) -> BCQuery:
    """Replace placeholder terms with parameter values, rebuilding the BCQ."""
    return BCQuery(
        head=tuple(_bind_term(t, params) for t in query.head),
        subgoals=tuple(
            ModalSubgoal(
                tuple(_bind_term(t, params) for t in sg.path),
                sg.relation,
                sg.sign,
                tuple(_bind_term(t, params) for t in sg.args),
            )
            for sg in query.subgoals
        ),
        user_atoms=tuple(
            UserAtom(_bind_term(ua.uid, params), _bind_term(ua.name, params))
            for ua in query.user_atoms
        ),
        predicates=tuple(
            Arith(p.op, _bind_term(p.left, params), _bind_term(p.right, params))
            for p in query.predicates
        ),
        name=query.name,
    )


@dataclass(frozen=True)
class CompiledSelect:
    """A select compiled once, bindable to many parameter vectors.

    ``query is None`` means the statement is provably empty for *every*
    binding (two distinct concrete constants equated). ``constraints`` are
    equality classes the union-find could not decide at compile time because
    a placeholder was involved; :meth:`bind` checks them and returns ``None``
    (empty result) when a binding violates one. ``translated`` is the query
    translated once, its placeholders Params: :meth:`run` is the engine's
    and the sqlite backend's execution, :meth:`bind` the bound BCQ the
    naive and lazy backends evaluate.
    """

    query: BCQuery | None
    columns: tuple[str, ...]
    param_count: int = 0
    constraints: tuple[tuple[Any, ...], ...] = ()
    translated: TranslatedQuery | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.query is not None:
            template = _substitute_query(self.query, _params(self.param_count))
            object.__setattr__(self, "translated", TranslatedQuery(template))

    def _checked(self, params: Sequence[Any]) -> tuple[Any, ...] | None:
        """The parameters, checked; None when the answer is empty for them."""
        bound = check_parameters(self.param_count, params)
        if self.query is None:
            return None
        for group in self.constraints:
            values = [_bind_term(term, bound) for term in group]
            if any(v != values[0] for v in values[1:]):
                return None
        return bound

    def bind(self, params: Sequence[Any] = ()) -> BCQuery | None:
        bound = self._checked(params)
        if bound is None:
            return None
        if not self.param_count:
            return self.query
        return _substitute_query(self.query, bound)

    def run(
        self, store: BeliefStore, params: Sequence[Any] = (), mirror: Any = None
    ) -> set[tuple]:
        """The answer on ``store``: the binding checked, then the held
        translation run with ``params`` on the engine, or its SQL on
        ``mirror`` (a :class:`~repro.relational.sqlite_backend.SqliteMirror`
        synced from ``store``)."""
        bound = self._checked(params)
        if bound is None:
            return set()
        return _evaluate(store, self.translated, bound, mirror)


@dataclass(frozen=True)
class CompiledLifecycleSelect:
    """A select with a ``WITH`` lifecycle clause, compiled once.

    Lifecycle filters apply to *explicit* statements — the curated
    annotations lifecycle records attach to — so the compiled form is not a
    BCQ over entailed worlds but a :class:`LifecycleSelect`: the belief
    world (exact path), relation, sign, the WHERE comparisons, the
    lifecycle filters and a column projection, placeholders still in it.
    :meth:`bind` substitutes the parameters and checks the filter values
    (a bad STATUS or CONFIDENCE raises :class:`LifecycleError`). The
    engine and lazy backends run it as one Datalog program over the
    internal schema and the lifecycle relations
    (:func:`repro.query.translate.translate_with`), sqlite as that program
    rendered to SQL, the naive backend by the reference scan
    (:func:`repro.query.naive.evaluate_naive_with`). The program is
    translated once (``translated``, placeholders as Params): :meth:`run`
    checks a binding as :meth:`bind` does and runs it.
    """

    select: LifecycleSelect
    columns: tuple[str, ...]
    param_count: int = 0
    translated: TranslatedQuery = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        template = _substitute_select(self.select, _params(self.param_count))
        object.__setattr__(self, "translated", TranslatedQuery(template))

    def bind(self, params: Sequence[Any] = ()) -> LifecycleSelect:
        bound = check_parameters(self.param_count, params)
        return _substitute_select(self.select, bound).checked()

    def run(
        self, store: BeliefStore, params: Sequence[Any] = (), mirror: Any = None
    ) -> set[tuple]:
        """As :meth:`CompiledSelect.run`; a bad STATUS or CONFIDENCE
        raises."""
        self.bind(params)
        return _evaluate(store, self.translated, tuple(params), mirror)


def _evaluate(
    store: BeliefStore, translated: TranslatedQuery, params: tuple, mirror: Any
) -> set[tuple]:
    if mirror is None:
        return evaluate_translated(store, translated, params=params)
    return evaluate_sql(store, translated, mirror, params)


def _substitute_select(
    select: LifecycleSelect, params: tuple[Any, ...]
) -> LifecycleSelect:
    """Replace placeholder terms with parameter values."""
    if not params:
        return select
    return LifecycleSelect(
        tuple(_bind_term(u, params) for u in select.path),
        select.relation,
        select.sign,
        select.head,
        tuple(
            (op, li, _bind_term(lv, params), ri, _bind_term(rv, params))
            for op, li, lv, ri, rv in select.where
        ),
        tuple((f, op, _bind_term(v, params)) for f, op, v in select.filters),
    )


def compile_lifecycle_select(
    stmt: SelectStatement, schema: ExternalSchema
) -> CompiledLifecycleSelect:
    """Compile a select carrying a ``WITH`` lifecycle clause."""
    from repro.lifecycle.model import STATUSES as _LIFECYCLE_STATUSES

    if len(stmt.items) != 1:
        raise BeliefSQLCompileError(
            "a WITH lifecycle clause requires exactly one FROM item "
            "(lifecycle records attach to single explicit statements)"
        )
    item = stmt.items[0]
    if item.relation not in schema:
        raise BeliefSQLCompileError(f"unknown relation {item.relation!r}")
    if item.relation == schema.users_relation:
        raise BeliefSQLCompileError(
            "the users catalog carries no lifecycle records"
        )
    relation = schema.relation(item.relation)
    param_count = statement_placeholders(stmt)
    columns = select_columns(stmt)
    indices: list[int] = []
    for col in stmt.columns:
        if col.alias not in (None, item.alias, item.relation):
            raise BeliefSQLCompileError(f"unknown column reference {col}")
        if col.column not in relation.attributes:
            raise BeliefSQLCompileError(
                f"relation {relation.name} has no column {col.column!r}"
            )
        indices.append(relation.attributes.index(col.column))
    path: list[Any] = []
    for operand in item.belief.path:
        if isinstance(operand, ColumnRef):
            raise BeliefSQLCompileError(
                "BELIEF arguments in a lifecycle-filtered select must be "
                f"literals, not column references ({operand})"
            )
        path.append(operand if isinstance(operand, Placeholder) else operand.value)
    where = tuple(
        ("!=" if op == "<>" else op, li, lv, ri, rv)
        for op, li, lv, ri, rv in _comparisons(
            item.relation, stmt.conditions, schema, alias=item.alias
        )
    )
    filters: list[tuple[str, str, Any]] = []
    for lf in stmt.lifecycle:
        value: Any = lf.value
        if isinstance(value, Literal):
            value = value.value
        if not isinstance(value, Placeholder):
            if lf.field == "status" and value not in _LIFECYCLE_STATUSES:
                raise BeliefSQLCompileError(
                    f"unknown STATUS literal {value!r}; expected one of "
                    + ", ".join(_LIFECYCLE_STATUSES)
                )
            if lf.field == "confidence" and not isinstance(value, (int, float)):
                raise BeliefSQLCompileError(
                    f"CONFIDENCE compares against a number, got {value!r}"
                )
        filters.append((lf.field, lf.op, value))
    select = LifecycleSelect(
        tuple(path),
        item.relation,
        _dml_sign(item.belief),
        tuple(indices),
        where,
        tuple(filters),
    )
    return CompiledLifecycleSelect(select, columns, param_count)


def compile_query(
    query: BCQuery | LifecycleSelect, schema: ExternalSchema
) -> "CompiledSelect | CompiledLifecycleSelect":
    """A query object as a select without parameters, compiled — what
    :meth:`repro.bdms.bdms.BeliefDBMS.query` caches and runs."""
    if isinstance(query, LifecycleSelect):
        return CompiledLifecycleSelect(query, ())
    return CompiledSelect(query.check_safe(schema), ())


def compile_select(
    stmt: SelectStatement, schema: ExternalSchema
) -> BCQuery | None:
    """Compile a placeholder-free ``select`` into a safe BCQ; None when
    provably empty (two different constants equated in the WHERE clause)."""
    if stmt.lifecycle:
        raise BeliefSQLCompileError(
            "selects with a WITH lifecycle clause do not compile to a BCQ; "
            "execute them through the BDMS (execute_sql/execute_prepared)"
        )
    compiled = compile_select_prepared(stmt, schema)
    assert isinstance(compiled, CompiledSelect)
    return compiled.bind(())


def compile_select_prepared(
    stmt: SelectStatement, schema: ExternalSchema
) -> "CompiledSelect | CompiledLifecycleSelect":
    """Compile a ``select`` (placeholders allowed) into a bindable form."""
    if stmt.lifecycle:
        return compile_lifecycle_select(stmt, schema)
    aliases: dict[str, FromItem] = {}
    for item in stmt.items:
        if item.alias in aliases:
            raise BeliefSQLCompileError(f"duplicate alias {item.alias!r}")
        if item.relation not in schema:
            raise BeliefSQLCompileError(f"unknown relation {item.relation!r}")
        aliases[item.alias] = item

    classes = _Classes()

    def slot_key(ref: ColumnRef) -> str:
        if ref.alias is None or ref.alias not in aliases:
            raise BeliefSQLCompileError(f"unknown column reference {ref}")
        relation = schema.relation(aliases[ref.alias].relation)
        if ref.column not in relation.attributes:
            raise BeliefSQLCompileError(
                f"relation {relation.name} has no column {ref.column!r}"
            )
        return f"{ref.alias}.{ref.column}"

    param_count = statement_placeholders(stmt)
    columns = select_columns(stmt)

    def empty() -> CompiledSelect:
        return CompiledSelect(None, columns, param_count)

    def register(operand: Operand) -> str | None:
        """Slot key for a column ref; None for literals/placeholders."""
        if isinstance(operand, ColumnRef):
            return slot_key(operand)
        return None

    def const_of(operand: Operand) -> Any:
        """The constant a non-column operand denotes (placeholders stay
        opaque and are substituted at bind time)."""
        if isinstance(operand, Placeholder):
            return operand
        assert isinstance(operand, Literal)
        return operand.value

    # Seed every column slot so each gets a term.
    for alias, item in aliases.items():
        for column in schema.relation(item.relation).attributes:
            classes.slot(f"{alias}.{column}")

    arith: list[tuple[str, Operand, Operand]] = []
    extra_constraints: list[tuple[Any, ...]] = []
    for cond in stmt.conditions:
        if cond.op == "=":
            left, right = register(cond.left), register(cond.right)
            if left is not None and right is not None:
                classes.union(left, right)
            elif left is not None:
                classes.bind_constant(left, const_of(cond.right))
            elif right is not None:
                classes.bind_constant(right, const_of(cond.left))
            else:
                lv, rv = const_of(cond.left), const_of(cond.right)
                if isinstance(lv, Placeholder) or isinstance(rv, Placeholder):
                    extra_constraints.append((lv, rv))
                elif lv != rv:
                    return empty()
        else:
            arith.append((cond.op, cond.left, cond.right))
    if classes.contradiction:
        return empty()

    # One term per class: its constant, or a variable named after the root.
    term_cache: dict[str, Term] = {}

    def term_for(key: str) -> Term:
        root = classes.find(key)
        if root not in term_cache:
            has_const, value = classes.constant_of(root)
            if has_const:
                term_cache[root] = value
            else:
                term_cache[root] = Variable(root.replace(".", "_"))
        return term_cache[root]

    def operand_term(operand: Operand) -> Term:
        if isinstance(operand, ColumnRef):
            return term_for(slot_key(operand))
        if isinstance(operand, Placeholder):
            return operand
        return operand.value

    subgoals: list[ModalSubgoal] = []
    user_atoms: list[UserAtom] = []
    for alias, item in aliases.items():
        relation = schema.relation(item.relation)
        args = tuple(
            term_for(f"{alias}.{column}") for column in relation.attributes
        )
        if item.relation == schema.users_relation:
            if item.belief.path or item.belief.negated:
                raise BeliefSQLCompileError(
                    "the users catalog cannot carry belief annotations"
                )
            if len(args) != 2:
                raise BeliefSQLCompileError(
                    f"users relation {relation.name} must have (uid, name)"
                )
            user_atoms.append(UserAtom(args[0], args[1]))
            continue
        path = tuple(operand_term(p) for p in item.belief.path)
        sign = NEGATIVE if item.belief.negated else POSITIVE
        subgoals.append(ModalSubgoal(path, item.relation, sign, args))

    predicates = tuple(
        Arith(op, operand_term(left), operand_term(right))
        for op, left, right in arith
    )
    head = tuple(operand_term(col) for col in stmt.columns)
    query = BCQuery(
        head=head,
        subgoals=tuple(subgoals),
        user_atoms=tuple(user_atoms),
        predicates=predicates,
    )
    query.check_safe(schema)
    constraints = tuple(classes.deferred_constraints() + extra_constraints)
    return CompiledSelect(query, columns, param_count, constraints)


# ----------------------------------------------------------------- DML

class DmlPredicate:
    """A compiled DML WHERE clause, callable on ground tuples.

    Holds ``(op, left_index, left_value, right_index, right_value)`` specs;
    a value slot may hold a :class:`Placeholder`, in which case the predicate
    must be :meth:`bind`-ed before evaluation.
    """

    __slots__ = ("_specs", "_unbound")

    def __init__(
        self, specs: Iterable[tuple[str, int | None, Any, int | None, Any]]
    ) -> None:
        self._specs = tuple(specs)
        self._unbound = any(
            isinstance(lv, Placeholder) or isinstance(rv, Placeholder)
            for _, _, lv, _, rv in self._specs
        )

    def bind(self, params: tuple[Any, ...]) -> "DmlPredicate":
        if not self._unbound:
            return self
        return DmlPredicate(
            (op, li, _bind_term(lv, params), ri, _bind_term(rv, params))
            for op, li, lv, ri, rv in self._specs
        )

    def __call__(self, t: GroundTuple) -> bool:
        if self._unbound:
            raise ParameterBindingError(
                "predicate contains unbound ? parameters; bind() it first"
            )
        for op, li, lv, ri, rv in self._specs:
            left = t.values[li] if li is not None else lv
            right = t.values[ri] if ri is not None else rv
            op = "!=" if op == "<>" else op
            if not compare(op, left, right):
                return False
        return True


@dataclass(frozen=True)
class CompiledInsert:
    path: tuple[Any, ...]  # raw user references (uids or names)
    sign: Sign
    relation: str
    values: tuple[Any, ...]
    param_count: int = 0

    def bind(self, params: Sequence[Any] = ()) -> "CompiledInsert":
        bound = check_parameters(self.param_count, params)
        if not self.param_count:
            return self
        return CompiledInsert(
            tuple(_bind_term(u, bound) for u in self.path),
            self.sign,
            self.relation,
            tuple(_bind_term(v, bound) for v in self.values),
        )


@dataclass(frozen=True)
class CompiledDelete:
    """A ``where`` delete holds its ``predicate``; a ``values`` delete holds
    the one tuple's ``values`` instead (``predicate`` is None)."""

    path: tuple[Any, ...]
    sign: Sign
    relation: str
    predicate: Callable[[GroundTuple], bool] | None
    param_count: int = 0
    values: tuple[Any, ...] | None = None

    def bind(self, params: Sequence[Any] = ()) -> "CompiledDelete":
        bound = check_parameters(self.param_count, params)
        if not self.param_count:
            return self
        predicate = self.predicate
        if isinstance(predicate, DmlPredicate):
            predicate = predicate.bind(bound)
        values = self.values
        if values is not None:
            values = tuple(_bind_term(v, bound) for v in values)
        return CompiledDelete(
            tuple(_bind_term(u, bound) for u in self.path),
            self.sign,
            self.relation,
            predicate,
            values=values,
        )


@dataclass(frozen=True)
class CompiledUpdate:
    path: tuple[Any, ...]
    sign: Sign
    relation: str
    assignments: tuple[tuple[str, Any], ...]
    predicate: Callable[[GroundTuple], bool]
    param_count: int = 0

    def bind(self, params: Sequence[Any] = ()) -> "CompiledUpdate":
        bound = check_parameters(self.param_count, params)
        if not self.param_count:
            return self
        predicate = self.predicate
        if isinstance(predicate, DmlPredicate):
            predicate = predicate.bind(bound)
        return CompiledUpdate(
            tuple(_bind_term(u, bound) for u in self.path),
            self.sign,
            self.relation,
            tuple((a, _bind_term(v, bound)) for a, v in self.assignments),
            predicate,
        )


def _dml_path(belief: BeliefSpec) -> tuple[Any, ...]:
    path: list[Any] = []
    for operand in belief.path:
        if isinstance(operand, ColumnRef):
            raise BeliefSQLCompileError(
                "BELIEF arguments in DML statements must be literals, "
                f"not column references ({operand})"
            )
        if isinstance(operand, Placeholder):
            path.append(operand)
        else:
            path.append(operand.value)
    return tuple(path)


def _dml_sign(belief: BeliefSpec) -> Sign:
    return NEGATIVE if belief.negated else POSITIVE


def _dml_predicate(
    relation_name: str,
    conditions: Iterable[Condition],
    schema: ExternalSchema,
) -> DmlPredicate:
    """Compile DML WHERE conditions into a tuple predicate."""
    return DmlPredicate(_comparisons(relation_name, conditions, schema))


def _comparisons(
    relation_name: str,
    conditions: Iterable[Condition],
    schema: ExternalSchema,
    alias: str | None = None,
) -> list[Comparison]:
    """WHERE conditions over one relation as ``(op, left position, left
    value, right position, right value)``.

    Operands may be bare column names (or ``relation.column``, or
    ``alias.column`` when an alias is given), literals, and ``?``
    placeholders.
    """
    relation = schema.relation(relation_name)

    def index_of(operand: Operand) -> int | None:
        if not isinstance(operand, ColumnRef):
            return None
        if operand.alias not in (None, relation_name, alias):
            raise BeliefSQLCompileError(
                f"DML conditions may only reference {relation_name} columns, "
                f"found {operand}"
            )
        if operand.column not in relation.attributes:
            raise BeliefSQLCompileError(
                f"relation {relation_name} has no column {operand.column!r}"
            )
        return relation.attributes.index(operand.column)

    def value_of(operand: Operand) -> Any:
        if isinstance(operand, Placeholder):
            return operand
        return operand.value if isinstance(operand, Literal) else None

    return [
        (
            cond.op,
            index_of(cond.left), value_of(cond.left),
            index_of(cond.right), value_of(cond.right),
        )
        for cond in conditions
    ]


def _check_arity(
    stmt: InsertStatement | DeleteStatement, schema: ExternalSchema
) -> tuple[Any, ...]:
    """A ``VALUES`` list, checked against its relation's arity."""
    arity = schema.relation(stmt.relation).arity
    if len(stmt.values) != arity:
        raise BeliefSQLCompileError(
            f"{stmt.relation} expects {arity} values, got {len(stmt.values)}"
        )
    return stmt.values


def compile_insert(stmt: InsertStatement, schema: ExternalSchema) -> CompiledInsert:
    return CompiledInsert(
        _dml_path(stmt.belief), _dml_sign(stmt.belief), stmt.relation,
        _check_arity(stmt, schema), statement_placeholders(stmt),
    )


def compile_delete(stmt: DeleteStatement, schema: ExternalSchema) -> CompiledDelete:
    """``where`` compiles to its comparisons; ``values`` stays the one
    tuple it names, so the delete reads that tuple's cell and nothing else."""
    if stmt.values is None:
        predicate = _dml_predicate(stmt.relation, stmt.conditions, schema)
        values = None
    else:
        predicate = None
        values = _check_arity(stmt, schema)
    return CompiledDelete(
        _dml_path(stmt.belief),
        _dml_sign(stmt.belief),
        stmt.relation,
        predicate,
        statement_placeholders(stmt),
        values,
    )


def compile_update(stmt: UpdateStatement, schema: ExternalSchema) -> CompiledUpdate:
    relation = schema.relation(stmt.relation)
    for column, _ in stmt.assignments:
        if column not in relation.attributes:
            raise BeliefSQLCompileError(
                f"relation {stmt.relation} has no column {column!r}"
            )
    return CompiledUpdate(
        _dml_path(stmt.belief),
        _dml_sign(stmt.belief),
        stmt.relation,
        stmt.assignments,
        _dml_predicate(stmt.relation, stmt.conditions, schema),
        statement_placeholders(stmt),
    )
