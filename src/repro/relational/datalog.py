"""Non-recursive Datalog over the in-memory engine.

Algorithm 1 translates belief conjunctive queries into non-recursive Datalog
over the internal schema; this module evaluates such programs:

* an :class:`Atom` is a table name with terms (variables or constants);
* a :class:`Rule` derives head tuples from a conjunction of body atoms,
  residual boolean conditions (arbitrary :mod:`expressions` trees, including
  the nested disjunctions Algorithm 1 emits for negative subgoals), and
  optional guarded negated atoms;
* a :class:`Program` is an ordered list of rules; each rule may materialize a
  temporary table that later rules read (the ``T_i`` of Sect. 5.2).

Evaluation is translate-once, set-at-a-time, like the paper's. A rule is
compiled (:func:`compile_rule`) into one generated function: a nest of
``for`` loops, one per body atom in a greedy bound-first join order, each
loop iterating what one index probe returns; variables are locals of that
function, every condition and negated atom is tested in the outermost loop
that binds all its variables, and the innermost statement adds the head
tuple to the result set. Nothing about the rule is looked at again per row.
(Past 15 loops the nest continues in a nested function that the innermost
loop calls: CPython compiles at most 20 nested blocks.)

Plans are keyed on the rule's *shape* — the rule with its constants lifted
into a parameter vector — so one prepared select run with a new key every
call compiles once. They live in one bounded, process-wide LRU
(:func:`plan_cache_stats`). A plan holds no table: :meth:`RulePlan.bind`
resolves the tables of one execution (the live ones, or any MVCC fork) and
asks each for a :meth:`Table.prober`, which fixes the access path for that
atom's bound columns once per execution. Errors that belong to the rule —
an unknown table, an arity mismatch, a negated atom or a condition naming a
variable the body does not bind — are raised when it is compiled or bound,
before any row is read. Temporaries are filled by one :meth:`Table.extend`.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import EngineError, UnknownTableError
from repro.relational.expressions import (
    And,
    Cmp,
    Const,
    Expr,
    Not,
    Or,
    Ref,
    compare,
)
from repro.relational.schema import TableSchema
from repro.relational.table import Row, Table


@dataclass(frozen=True)
class Var:
    """A Datalog variable. Anything that is not a Var is a constant."""

    name: str

    def __str__(self) -> str:
        return self.name


Term = Any  # Var or a constant value


@dataclass(frozen=True)
class Atom:
    """``table(t1, ..., tk)`` with terms bound positionally to columns."""

    table: str
    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        if isinstance(self.terms, list):
            object.__setattr__(self, "terms", tuple(self.terms))

    def variables(self) -> frozenset[str]:
        return frozenset(t.name for t in self.terms if isinstance(t, Var))

    def __str__(self) -> str:
        inner = ", ".join(
            t.name if isinstance(t, Var) else repr(t) for t in self.terms
        )
        return f"{self.table}({inner})"


@dataclass(frozen=True)
class NegatedAtom:
    """``not table(t1, ..., tk)`` — safe only when all variables are bound.

    Not required by Algorithm 1 (negation there is encoded through signs), but
    part of a complete non-recursive Datalog substrate.
    """

    atom: Atom

    def __str__(self) -> str:
        return f"not {self.atom}"


@dataclass(frozen=True)
class Rule:
    """``head :- body, conditions, negated.``"""

    head: Atom
    body: tuple[Atom, ...]
    conditions: tuple[Expr, ...] = ()
    negated: tuple[NegatedAtom, ...] = ()

    def __post_init__(self) -> None:
        for attr in ("body", "conditions", "negated"):
            value = getattr(self, attr)
            if isinstance(value, list):
                object.__setattr__(self, attr, tuple(value))
        head_vars = self.head.variables()
        body_vars: set[str] = set()
        for atom in self.body:
            body_vars |= atom.variables()
        unsafe = head_vars - body_vars
        if unsafe:
            raise EngineError(
                f"unsafe rule: head variables {sorted(unsafe)} not bound in body"
            )

    def __str__(self) -> str:
        parts = [str(a) for a in self.body]
        parts += [str(c) for c in self.conditions]
        parts += [str(n) for n in self.negated]
        return f"{self.head} :- " + ", ".join(parts)


@dataclass
class Program:
    """An ordered, non-recursive list of rules.

    Rules whose head table already exists append to it; otherwise a temporary
    table is created (columns auto-named ``c0..ck``). The set of temporary
    tables is returned by :meth:`Database.run_program` for inspection and is
    dropped afterwards unless ``keep_temps``.
    """

    rules: list[Rule] = field(default_factory=list)

    def add(self, rule: Rule) -> "Program":
        self.rules.append(rule)
        return self

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.rules)


# -- rule shapes ---------------------------------------------------------------
#
# A rule's *shape* is the rule with its constants taken out. In a shape a
# variable is its name (a ``str``), a constant is its index (an ``int``) in
# the parameter vector, an atom is ``(table, terms)`` and an operator node of
# a condition is ``(operator, operand, ...)``. The shape is the key of the
# plan cache and all that a plan is generated from, so rules that differ only
# in constants (one prepared select, a new key every call) share one plan.

_CONNECTIVES = {And: "and", Or: "or"}


def _shape(rule: Rule) -> tuple[tuple, list[Any]]:
    """``(shape, parameter vector)`` of ``rule``."""
    params: list[Any] = []

    def atom_shape(atom: Atom) -> tuple:
        terms = []
        for term in atom.terms:
            if isinstance(term, Var):
                terms.append(term.name)
            else:
                terms.append(len(params))
                params.append(term)
        return (atom.table, tuple(terms))

    def expr_shape(expr: Expr) -> Any:
        kind = type(expr)
        if kind is Cmp:
            return (expr.op, expr_shape(expr.left), expr_shape(expr.right))
        if kind is Ref:
            return expr.name
        if kind is Const:
            params.append(expr.value)
            return len(params) - 1
        if kind is And or kind is Or:
            return (_CONNECTIVES[kind], *map(expr_shape, expr.items))
        if kind is Not:
            return ("not", expr_shape(expr.item))
        raise EngineError(f"cannot compile condition {expr}")

    shape = (
        atom_shape(rule.head),
        tuple([atom_shape(atom) for atom in rule.body]),
        tuple([expr_shape(expr) for expr in rule.conditions]),
        tuple([atom_shape(negated.atom) for negated in rule.negated]),
    )
    return shape, params


def _atom_variables(terms: Iterable[int | str]) -> list[str]:
    return [term for term in terms if isinstance(term, str)]


def _condition_variables(shape: Any) -> Iterator[str]:
    if isinstance(shape, str):
        yield shape
    elif isinstance(shape, tuple):
        for operand in shape[1:]:
            yield from _condition_variables(operand)


def _plan_order(body: Sequence[tuple]) -> list[int]:
    """Greedy bound-first ordering of body atoms, as positions in ``body``.

    Start from atoms with the most constants; repeatedly pick the atom sharing
    the most variables with the bound set (ties: more constants, then source
    order). This keeps probe patterns index-friendly without a full optimizer.
    """
    remaining = list(range(len(body)))
    ordered: list[int] = []
    bound: set[str] = set()
    while remaining:
        def score(idx: int) -> tuple[int, int, int]:
            terms = body[idx][1]
            shared = len(bound.intersection(_atom_variables(terms)))
            consts = sum(1 for t in terms if isinstance(t, int))
            return (shared, consts, -idx)

        best = max(remaining, key=score)
        remaining.remove(best)
        ordered.append(best)
        bound.update(_atom_variables(body[best][1]))
    return ordered


# -- compilation ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RulePlan:
    """One rule shape, compiled: a function of nested index-probe loops.

    ``run(params, probes)`` returns the set of head tuples; ``probes`` come
    from :meth:`bind`, one per entry of ``accesses`` — ``(negated, position
    in the rule's body or negated atoms, bound columns)``, body atoms in join
    order first. A plan names no :class:`Table`: every MVCC fork is another
    object, so tables are bound per execution.
    """

    run: Callable[[Sequence[Any], Sequence[Callable]], set[Row]]
    accesses: tuple[tuple[bool, int, tuple[int, ...]], ...]

    def _atoms(self, rule: Rule) -> Iterator[tuple[bool, Atom, tuple[int, ...]]]:
        for negated, position, columns in self.accesses:
            atom = rule.negated[position].atom if negated else rule.body[position]
            yield negated, atom, columns

    def bind(self, tables: Mapping[str, Table], rule: Rule) -> list[Callable]:
        """Resolve ``rule``'s tables and one access path per atom; raises
        for an unknown table or an arity mismatch before any row is read."""
        probes = []
        for _, atom, columns in self._atoms(rule):
            try:
                table = tables[atom.table]
            except KeyError:
                raise UnknownTableError(f"unknown table {atom.table!r}") from None
            if len(atom.terms) != table.schema.arity:
                raise EngineError(
                    f"atom {atom} arity mismatch with table "
                    f"{table.schema.name}({table.schema.arity})"
                )
            probes.append(table.prober(columns))
        return probes

    def describe(self, tables: Mapping[str, Table], rule: Rule) -> str:
        """The join order and each atom's access path, for EXPLAIN; a table
        not in ``tables`` is a temporary that was never materialized."""
        steps = []
        for negated, atom, columns in self._atoms(rule):
            table = tables.get(atom.table)
            if table is None:
                bound, path = (f"c{i}" for i in columns), "temporary"
            else:
                bound = (table.schema.columns[i] for i in columns)
                path = table.access_path(columns)
            steps.append(
                f"{'not ' if negated else ''}{atom.table}[{', '.join(bound)}] {path}"
            )
        return f"{rule.head.table}: " + " -> ".join(steps)


#: Loops emitted into one function: CPython compiles at most 20 statically
#: nested blocks, so a longer join goes on in a function the loops call.
_MAX_NEST = 15


def compile_rule(rule: Rule) -> tuple[RulePlan, list[Any]]:
    """The plan of ``rule``'s shape and ``rule``'s parameter vector.

    The plan comes from the process-wide cache. On a miss everything but the
    tables is decided here: the join order, each atom's bound and free
    positions (and the variables repeated inside it), a local per variable,
    the outermost loop at which each condition and negated atom is fully
    bound, and the head projection are emitted as the source of one
    function. A condition or a negated atom naming a variable no body atom
    binds is an :class:`EngineError` here.
    """
    shape, params = _shape(rule)
    plan = _PLANS.get(shape)
    if plan is None:
        bound = frozenset().union(*(atom.variables() for atom in rule.body))
        for negated in rule.negated:
            unbound = sorted(negated.atom.variables() - bound)
            if unbound:
                raise EngineError(
                    f"negated atom {negated.atom} has unbound variable "
                    f"{unbound[0]!r}"
                )
        plan = _compile(shape, len(params))
        _PLANS.put(shape, plan)
    return plan, params


def _compile(shape: tuple, nparams: int) -> RulePlan:
    head, body, conditions, negated = shape
    order = _plan_order(body)
    local: dict[str, str] = {}
    for _, terms in body:
        for name in _atom_variables(terms):
            local.setdefault(name, f"v{len(local)}")
    #: A variable occurring once is bound and never read: it gets no local.
    uses: Counter[str] = Counter()
    for _, terms in (head, *body, *negated):
        uses.update(_atom_variables(terms))
    for cond in conditions:
        uses.update(_condition_variables(cond))

    def value(term: int | str) -> str:
        return f"p{term}" if isinstance(term, int) else local[term]

    def row_of(terms: Iterable[int | str]) -> str:
        return "(" + "".join(f"{value(term)}, " for term in terms) + ")"

    #: (variables it reads, the test that rejects a binding), not yet placed
    guards = [
        (set(_condition_variables(cond)), f"not {_expr_source(cond, local, True)}")
        for cond in conditions
    ]
    guards += [
        (set(_atom_variables(terms)), f"probe{len(body) + k}({row_of(terms)})")
        for k, (_, terms) in enumerate(negated)
    ]

    hoisted: list[str] = []  # probes no loop variable feeds, run once
    functions: list[list[str]] = []  # where a join longer than _MAX_NEST goes on
    loops = lines = []  # ``run``'s own loops; the function being emitted
    pad = "    "
    nest = 0  # loops open in the function being emitted
    bound: set[str] = set()
    assigned: list[str] = []  # the locals set so far
    accesses: list[tuple[bool, int, tuple[int, ...]]] = []

    def place_guards() -> None:
        reject = "continue" if nest else "return out"
        for guard in [g for g in guards if g[0] <= bound]:
            guards.remove(guard)
            lines.append(f"{pad}if {guard[1]}: {reject}")

    place_guards()
    for depth, position in enumerate(order):
        if nest == _MAX_NEST:
            function = f"join{depth}({', '.join(assigned)})"
            lines.append(pad + function)
            lines = [f"    def {function}:"]
            functions.append(lines)
            pad = "        "
            nest = 0
        terms = body[position][1]
        row = f"r{depth}"
        columns = [
            i for i, term in enumerate(terms)
            if isinstance(term, int) or term in bound
        ]
        call = f"probe{depth}({row_of(terms[i] for i in columns)})"
        if all(isinstance(terms[i], int) for i in columns):
            hoisted.append(f"    rows{depth} = {call}")
            call = f"rows{depth}"
        lines.append(f"{pad}for {row} in {call}:")
        pad += "    "
        nest += 1
        first: dict[str, int] = {}  # the variables this atom binds
        for i, term in enumerate(terms):
            if i in columns:
                continue
            if term in first:  # repeated inside the atom
                lines.append(f"{pad}if {row}[{i}] != {row}[{first[term]}]: continue")
            else:
                first[term] = i
                if uses[term] > 1:
                    lines.append(f"{pad}{local[term]} = {row}[{i}]")
                    assigned.append(local[term])
        bound.update(first)
        accesses.append((False, position, tuple(columns)))
        place_guards()
    accesses += [
        (True, k, tuple(range(len(terms)))) for k, (_, terms) in enumerate(negated)
    ]
    lines.append(f"{pad}add({row_of(head[1])})")

    source = "\n".join(
        [
            "def run(params, probes):",
            f"    ({''.join(f'p{i}, ' for i in range(nparams))}) = params",
            f"    ({''.join(f'probe{i}, ' for i in range(len(accesses)))}) = probes",
            "    out = set()",
            "    add = out.add",
            *hoisted,
            *(line for function in functions for line in function),
            *loops,
            "    return out",
        ]
    )
    namespace: dict[str, Any] = {"compare": compare}
    exec(compile(source, f"<plan of {head[0]}>", "exec"), namespace)
    return RulePlan(namespace["run"], tuple(accesses))


def _expr_source(shape: Any, local: Mapping[str, str], truth: bool) -> str:
    """Python source for a condition's shape; ``truth`` says that only the
    truth value of the result is used (else it must equal ``Expr.eval``'s)."""
    if isinstance(shape, int):
        return f"p{shape}"
    if isinstance(shape, str):
        try:
            return local[shape]
        except KeyError:
            raise EngineError(f"unbound name {shape!r} in expression") from None
    op, *operands = shape
    if op == "not":
        return f"(not {_expr_source(operands[0], local, True)})"
    if op in ("and", "or"):
        if not operands:
            return str(op == "and")
        inner = f" {op} ".join(_expr_source(o, local, True) for o in operands)
        return f"({inner})" if truth else f"bool({inner})"
    left, right = (_expr_source(o, local, False) for o in operands)
    if op == "=":
        return f"({left} == {right})"
    if op == "!=":
        return f"({left} != {right})"
    return f"compare({op!r}, {left}, {right})"


class _PlanCache:
    """Shape -> plan, least recently used evicted first; thread-safe.

    Two threads that miss on one shape both compile it and the later store
    wins: a plan is a pure function of its shape.
    """

    #: Fixed: a steady statement mix has a few dozen shapes, and a plan is
    #: about a kilobyte of source plus its code object.
    capacity = 256

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._plans: OrderedDict[tuple, RulePlan] = OrderedDict()
        self._compiles = 0
        self._hits = 0

    def get(self, shape: tuple) -> RulePlan | None:
        with self._lock:
            plan = self._plans.get(shape)
            if plan is not None:
                self._plans.move_to_end(shape)
                self._hits += 1
            return plan

    def put(self, shape: tuple, plan: RulePlan) -> None:
        """Store a newly compiled plan, evicting beyond the capacity."""
        with self._lock:
            self._compiles += 1
            self._plans[shape] = plan
            self._plans.move_to_end(shape)
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "compiles": self._compiles,
                "hits": self._hits,
                "size": len(self._plans),
                "capacity": self.capacity,
            }


#: The process's one plan cache. A plan depends on nothing but its shape, so
#: every database and every MVCC version in the process shares it.
_PLANS = _PlanCache()


def plan_cache_stats() -> dict[str, int]:
    """``{compiles, hits, size, capacity}`` of the process-wide plan cache."""
    return _PLANS.stats()


# -- evaluation ----------------------------------------------------------------


def evaluate_rule(tables: Mapping[str, Table], rule: Rule) -> set[Row]:
    """All head tuples derivable by ``rule`` against ``tables``."""
    plan, params = compile_rule(rule)
    return plan.run(params, plan.bind(tables, rule))


def explain_program(tables: Mapping[str, Table], program: Program) -> list[str]:
    """Per rule, the join order and the access paths its plan has on
    ``tables`` (pass the kept temporaries along to see theirs)."""
    return [compile_rule(rule)[0].describe(tables, rule) for rule in program]


def run_program(
    tables: dict[str, Table],
    program: Program,
    keep_temps: bool = False,
) -> tuple[set[Row], dict[str, Table]]:
    """Run rules in order; the last rule's derivations are the result.

    Intermediate heads materialize as temporary tables visible to later rules.
    Returns ``(result set, temporary tables)``; the caller owns cleanup when
    ``keep_temps`` is set (temporaries live only in the returned dict, the
    input ``tables`` mapping is never mutated).
    """
    if not program.rules:
        return set(), {}
    scope = dict(tables)
    temps: dict[str, Table] = {}
    result: set[Row] = set()
    for rule in program.rules:
        result = evaluate_rule(scope, rule)
        head = rule.head
        if not head.terms:
            # Boolean rule (0-ary head): nothing to materialize; the result
            # set is ∅ or {()}. Such heads cannot feed later rules.
            continue
        target = scope.get(head.table)
        if target is None:
            schema = TableSchema(
                head.table, tuple(f"c{i}" for i in range(len(head.terms)))
            )
            target = temps[head.table] = scope[head.table] = Table(schema)
            target.extend(result)
        else:
            target.extend(result.difference(target))
    return result, (temps if keep_temps else {})
