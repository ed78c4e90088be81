"""Non-recursive Datalog over the in-memory engine.

Algorithm 1 translates belief conjunctive queries into non-recursive Datalog
over the internal schema; this module evaluates such programs:

* an :class:`Atom` is a table name with terms (variables or constants);
* a :class:`Rule` derives head tuples from a conjunction of body atoms,
  residual boolean conditions (arbitrary :mod:`expressions` trees, including
  the nested disjunctions Algorithm 1 emits for negative subgoals), and
  optional guarded negated atoms (each with residual tests of its own on
  the row it finds);
* a :class:`Program` is an ordered list of rules; each rule may materialize a
  temporary table that later rules read (the ``T_i`` of Sect. 5.2);
* a :class:`Param` is a constant known only when the program runs.

Evaluation is translate-once, set-at-a-time, like the paper's, and like the
paper's RDBMS it plans the whole query: :func:`unfold` first folds every
temporary that is read once into the rule that reads it (one join, in which
each subgoal's probes see the bindings of the others and no ``T_i`` is
materialized), one rule per connected component of the variable graph.
Translate-once holds per statement: a query is translated and unfolded as
a *template* whose parameters (and the users its paths name, which the
store resolves) are :class:`Param` s, so its translation is keyed on the
statement alone (:class:`repro.query.translate.TranslatedQuery`); a
:class:`PreparedProgram` takes each rule's shape once and holds its plan,
and a run is: fill the parameter vector, check the catalog, run the plan.

A rule is compiled (:func:`compile_rule`) into one generated function: a
nest of loops, one step per body atom in a greedy join order chosen from
the catalog — what key and indexes each table has — so that every step
gets the best access path its bound columns can have. A step over a unique
key is two dict lookups and no loop, the first on the value a one-column
key holds (only a wider key's values make a tuple); a step over an index
iterates its bucket in place (the table's probe loop, :meth:`Table.prober`,
written out inline: one ``get`` per level of the index — the first
column's value, then the rest in the inner map it finds, with no key tuple
built — snapshot the bucket, look each rowid up in the rows this
execution holds, compare the bound columns the index does not cover); only
a step nothing covers calls the table's prober. Variables are locals of
that function, every condition and negated atom is tested in the outermost
loop that binds all its variables, and the innermost statement adds the
head tuple to the result set. Nothing about the rule is looked at again per row.
(Past 15 loops the nest continues in a nested function that the innermost
loop calls: CPython compiles at most 20 nested blocks.)

Plans are keyed on the rule's *shape* — the rule with its constants lifted
into a parameter vector — and the catalog of the tables it reads, so one
prepared select run with a new key every call compiles once, and two
databases whose same-named tables are indexed differently never run each
other's plan. They live in one bounded, process-wide LRU
(:func:`plan_cache_stats`); a :class:`PreparedRule` keeps the plan it last
ran beside that plan's catalog and goes back to the cache only when the
catalog of the tables it runs on differs (an index adopted or built, a
replaced store). A plan holds no table: :meth:`RulePlan.bind`
resolves the tables of one execution (the live ones, or any MVCC fork) and
asks each for what its step reads (:meth:`Table.path`, or a
:meth:`Table.prober`). Errors that belong to the rule — an unknown table,
an arity mismatch, a negated atom or a condition naming a variable the body
does not bind — are raised when it is compiled or bound, before any row is
read. Temporaries are filled by one :meth:`Table.insert_many`.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Collection, Iterable, Iterator, Mapping, Sequence

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
from repro.relational.table import NO_ROWS, Access, Row, Table


@dataclass(frozen=True)
class Var:
    """A Datalog variable. Anything that is not a Var is a constant."""

    name: str

    def __str__(self) -> str:
        return self.name


Term = Any  # Var or a constant value


class _Any:
    """The anonymous term ``_`` (:data:`ANY`)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "_"


#: The anonymous term, for negated atoms only: ``not T(x, ANY)`` holds when
#: no row of ``T`` has ``x`` in its first column, whatever the second holds.
ANY = _Any()


@dataclass(frozen=True, slots=True)
class Param:
    """A constant known only when the program runs: the ``index``-th value
    it is run with (:meth:`PreparedProgram.run`). A rule's shape lifts it
    out like any other constant. To :func:`unfold` it is an unknown
    constant: equal to itself, and to any other constant only maybe."""

    index: int

    def __repr__(self) -> str:
        return f"?{self.index}"


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
    """``not table(t1, ..., tk)``, or with ``conditions`` ``not (table(t1,
    ..., tk), c1, ...)``: no row of ``table`` matches the terms and passes
    the conditions. A column it does not care about holds :data:`ANY`.

    Its variables must be bound by the rule's body, except *local* ones:
    a variable the body does not bind names the column it stands in of
    the row found, and only the conditions may read it.

    Not required by Algorithm 1 (negation there is encoded through signs);
    a ``WITH`` select's one-scan rule reads one: no lifecycle record that
    fails the filter (:func:`repro.query.translate.translate_with`).
    """

    atom: Atom
    conditions: tuple[Expr, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.conditions, list):
            object.__setattr__(self, "conditions", tuple(self.conditions))

    def variables(self) -> frozenset[str]:
        """The atom's variables and those its conditions read."""
        return self.atom.variables().union(
            *(condition.variables() for condition in self.conditions)
        )

    def __str__(self) -> str:
        if not self.conditions:
            return f"not {self.atom}"
        return f"not ({', '.join(map(str, (self.atom, *self.conditions)))})"


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
# the parameter vector, :data:`ANY` is None, an atom is ``(table, terms)``
# (a negated one ``(table, terms, conditions)``) and an operator node of a
# condition is ``(operator, operand, ...)``. The shape is the key of the
# plan cache and all that a plan is generated from, so rules that differ
# only in constants (one prepared select, a new key every call) share one
# plan. A :class:`Param` is a constant like any other: its entry in the
# parameter vector is filled per run.

_CONNECTIVES = {And: "and", Or: "or"}


def _shape(rule: Rule) -> tuple[tuple, list[Any]]:
    """``(shape, parameter vector)`` of ``rule``."""
    params: list[Any] = []

    def atom_shape(atom: Atom) -> tuple:
        terms = []
        for term in atom.terms:
            if isinstance(term, Var):
                terms.append(term.name)
            elif term is ANY:
                terms.append(None)
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
        tuple(
            [
                (*atom_shape(negated.atom), tuple(map(expr_shape, negated.conditions)))
                for negated in rule.negated
            ]
        ),
    )
    return shape, params


class _Shape:
    """A shape with its hash taken once: a plan-cache key hashes it, and a
    prepared rule looks its shape up only when its catalog changes."""

    __slots__ = ("value", "_hash")

    def __init__(self, value: tuple) -> None:
        self.value = value
        self._hash = hash(value)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is _Shape
            and self._hash == other._hash
            and self.value == other.value
        )


def _atom_variables(terms: Iterable[int | str | None]) -> list[str]:
    return [term for term in terms if isinstance(term, str)]


def _condition_variables(shape: Any) -> Iterator[str]:
    if isinstance(shape, str):
        yield shape
    elif isinstance(shape, tuple):
        for operand in shape[1:]:
            yield from _condition_variables(operand)


#: :meth:`Table.access` kinds, best first: a probe that finds at most one
#: row, one that reads a bucket, one that filters a small table, and one
#: that first has to build the index it reads. Last (``len(_RANK)``) comes
#: an atom with nothing bound, every row of which goes on.
_RANK = {"key": 0, "index": 1, "scan": 2, "build": 3}


def _plan_order(
    body: Sequence[tuple], tables: Sequence[Table]
) -> list[tuple[int, tuple[int, ...], Access]]:
    """Greedy join order from the catalog: ``(position in body, bound
    columns, access path)`` per step.

    Next comes the atom whose bound columns — its constants and the
    variables bound so far — get the best access path on its table: the
    unique key, then the longest covering index, then a scan of a table too
    small to index, then an index that has to be built first (on the
    smallest table, if it must be one); an atom with nothing bound comes
    when nothing else is left. Ties go to the atom
    sharing more variables with the bound set (a join before a cross
    product), then more constants, then source order.
    """
    remaining = list(range(len(body)))
    steps: list[tuple[int, tuple[int, ...], Access]] = []
    bound: set[str] = set()
    while remaining:
        candidates = []
        for idx in remaining:
            terms = body[idx][1]
            columns = tuple(
                i for i, term in enumerate(terms)
                if isinstance(term, int) or term in bound
            )
            access = tables[idx].access(columns)
            shared = len(bound.intersection(_atom_variables(terms)))
            consts = sum(1 for term in terms if isinstance(term, int))
            rank = _RANK[access.kind] if columns else len(_RANK)
            build = len(tables[idx]) if access.kind == "build" else 0
            cost = (rank, build, -len(access.positions), -shared, -consts)
            candidates.append((cost, idx, columns, access))
        _, best, columns, access = min(candidates)
        remaining.remove(best)
        steps.append((best, columns, access))
        bound.update(_atom_variables(body[best][1]))
    return steps


# -- compilation ---------------------------------------------------------------


def _table_of(tables: Mapping[str, Table], atom: Atom) -> Table:
    try:
        table = tables[atom.table]
    except KeyError:
        raise UnknownTableError(f"unknown table {atom.table!r}") from None
    if len(atom.terms) != table.schema.arity:
        raise EngineError(
            f"atom {atom} arity mismatch with table "
            f"{table.schema.name}({table.schema.arity})"
        )
    return table


@dataclass(frozen=True, slots=True)
class RulePlan:
    """One rule shape on one catalog, compiled: a function of nested loops.

    ``run(params, probes)`` returns the set of head tuples (a plan compiled
    ``counted`` also takes a list and adds to it, per join step, the rows
    that went on to the next). ``probes`` come from :meth:`bind`, one per
    entry of ``accesses`` — ``(negated, position in the rule's body or
    negated atoms, bound columns, the access path the loops read inline or
    None where they call :meth:`Table.prober`)``, body atoms in join order
    first. A plan names no :class:`Table`: every MVCC fork is another
    object, so tables are bound per execution.
    """

    run: Callable[..., set[Row]]
    accesses: tuple[tuple[bool, int, tuple[int, ...], Access | None], ...]

    def _atoms(self, rule: Rule) -> Iterator[tuple[bool, Atom, tuple, Access | None]]:
        for negated, position, columns, access in self.accesses:
            atom = rule.negated[position].atom if negated else rule.body[position]
            yield negated, atom, columns, access

    def bind(self, tables: Mapping[str, Table], rule: Rule) -> list:
        """Resolve ``rule``'s tables and what each step reads; raises for
        an unknown table or an arity mismatch before any row is read."""
        return self.probes(_tables_read(tables, rule), len(rule.body))

    def probes(self, read: Sequence[Table], body: int) -> list:
        """What each step reads from ``read``: the tables of the rule's
        ``body`` atoms, then those of its negated atoms."""
        probes: list = []
        for negated, position, columns, access in self.accesses:
            table = read[body + position if negated else position]
            probes.append(
                table.prober(columns) if access is None else table.path(access)
            )
        return probes

    def describe(
        self,
        tables: Mapping[str, Table],
        rule: Rule,
        counts: Sequence[int] | None = None,
    ) -> str:
        """The join order and each atom's access path on ``tables``, for
        EXPLAIN; with ``counts`` (a counted run's), the rows out of each
        join step. A negated atom's residual tests on the row it finds
        show as ``+test(columns)``, the columns its local variables name."""
        bound_names = _body_variables(rule)
        steps = []
        for n, (negated, atom, columns, _) in enumerate(self._atoms(rule)):
            table = tables[atom.table]
            names = table.schema.columns
            step = f"{'not ' if negated else ''}{atom.table}["
            step += ", ".join(names[i] for i in columns) + "] "
            step += table.access_path(columns)
            locals_ = [
                names[i] for i, term in enumerate(atom.terms)
                if type(term) is Var and term.name not in bound_names
            ]
            if negated and locals_:
                step += f"+test({', '.join(locals_)})"
            if counts is not None and not negated:
                step += f" ({counts[n]:,} rows)"
            steps.append(step)
        return f"{rule.head.table}: " + " -> ".join(steps)


def _body_variables(rule: Rule) -> frozenset[str]:
    return frozenset().union(*(atom.variables() for atom in rule.body))


def _tables_read(tables: Mapping[str, Table], rule: Rule) -> list[Table]:
    """The tables of ``rule``'s body atoms, then of its negated atoms."""
    read = [_table_of(tables, atom) for atom in rule.body]
    read += [_table_of(tables, negated.atom) for negated in rule.negated]
    return read


def _check_negated(rule: Rule) -> None:
    """A negated atom's variable the body does not bind is local to it, and
    must be read by its conditions (else it is :data:`ANY` misspelled)."""
    bound = _body_variables(rule)
    for negated in rule.negated:
        read = frozenset().union(*(c.variables() for c in negated.conditions))
        unbound = sorted(negated.atom.variables() - bound - read)
        if unbound:
            raise EngineError(
                f"negated atom {negated.atom} has unbound variable {unbound[0]!r}"
            )


#: Loops emitted into one function: CPython compiles at most 20 statically
#: nested blocks, so a longer join goes on in a function the loops call.
_MAX_NEST = 15


class PreparedRule:
    """A rule taken apart once to be run many times.

    Its shape is taken (and hashed) once; its parameter vector keeps a
    slot per :class:`Param`, filled from the values of each run. The plan
    is the plan cache's entry for the shape and the catalog — each table's
    :meth:`Table.signature`, what the access paths are chosen from — of the
    tables it runs on; the rule holds the last one it ran beside that
    catalog, and the catalog is compared on every run, so an index built
    or adopted since, a fork's private index or another store's tables
    replan through the cache and a stale plan never runs.
    """

    __slots__ = ("rule", "params", "_shape", "_slots", "_held")

    def __init__(self, rule: Rule) -> None:
        shape, params = _shape(rule)
        self.rule = rule
        #: The parameter vector: the rule's constants, Params unfilled.
        self.params = params
        self._shape = _Shape(shape)
        self._slots = [(i, p.index) for i, p in enumerate(params) if type(p) is Param]
        self._held: tuple[tuple, RulePlan] | None = None

    def plan(
        self, tables: Mapping[str, Table], counted: bool = False
    ) -> tuple[RulePlan, list[Table]]:
        """The plan for ``tables``' catalog, and the tables the rule reads.

        On a cache miss everything is decided (:func:`_compile`): the join
        order, each atom's bound and free positions (and the variables
        repeated inside it), which steps read a key or an index inline (and
        which negated atoms are a key lookup), a local per variable, the
        outermost loop at which each condition and negated atom is fully
        bound, and the head projection are emitted as the source of one
        function. An unknown table, an arity mismatch, and a condition or a
        negated atom naming a variable nothing binds are errors here.
        """
        read = _tables_read(tables, self.rule)
        catalog = tuple([table.signature() for table in read])
        held = self._held
        if held is not None and held[0] == catalog and not counted:
            return held[1], read
        key = (self._shape, catalog, counted)
        plan = _PLANS.get(key)
        if plan is None:
            _check_negated(self.rule)
            plan = _compile(self._shape.value, len(self.params), read, counted)
            _PLANS.put(key, plan)
        if not counted:
            self._held = (catalog, plan)
        return plan, read

    def run(
        self,
        tables: Mapping[str, Table],
        values: Sequence[Any] = (),
        trace: list[str] | None = None,
    ) -> set[Row]:
        """All head tuples the rule derives against ``tables``, each
        ``Param(i)`` standing for ``values[i]``; with ``trace``, also
        appends the plan with the rows out of each join step."""
        plan, read = self.plan(tables, counted=trace is not None)
        probes = plan.probes(read, len(self.rule.body))
        params = self.params
        if self._slots:
            params = list(params)
            for i, k in self._slots:
                params[i] = values[k]
        if trace is None:
            return plan.run(params, probes)
        counts = [0] * len(self.rule.body)
        result = plan.run(params, probes, counts)
        trace.append(plan.describe(tables, self.rule, counts))
        return result


def compile_rule(
    rule: Rule, tables: Mapping[str, Table], counted: bool = False
) -> tuple[RulePlan, list[Any]]:
    """The plan of ``rule``'s shape on ``tables``' catalog, from the
    process-wide cache (:meth:`PreparedRule.plan`), and ``rule``'s
    parameter vector."""
    prepared = PreparedRule(rule)
    return prepared.plan(tables, counted)[0], prepared.params


def _compile(
    shape: tuple, nparams: int, tables: Sequence[Table], counted: bool
) -> RulePlan:
    """``tables``: those of the body atoms, then those of the negated ones."""
    head, body, conditions, negated = shape
    if any(None in terms for _, terms in (head, *body)):
        raise EngineError("the anonymous term _ may only stand in a negated atom")
    order = _plan_order(body, tables)
    local: dict[str, str] = {}
    for _, terms in body:
        for name in _atom_variables(terms):
            local.setdefault(name, f"v{len(local)}")
    #: A variable occurring once is bound and never read: it gets no local.
    uses: Counter[str] = Counter()
    for _, terms in (head, *body):
        uses.update(_atom_variables(terms))
    for cond in conditions:
        uses.update(_condition_variables(cond))
    for _, terms, tests in negated:
        uses.update(name for name in _atom_variables(terms) if name in local)
        for cond in tests:
            uses.update(_condition_variables(cond))

    def value(term: int | str) -> str:
        return f"p{term}" if isinstance(term, int) else local[term]

    def row_of(terms: Iterable[int | str | None]) -> str:
        return "(" + "".join(f"{value(t)}, " for t in terms if t is not None) + ")"

    def key_of(terms: Sequence[int | str]) -> str:
        """A key dict's key: the bare value of a one-column key."""
        return value(terms[0]) if len(terms) == 1 else row_of(terms)

    #: (variables it reads, the test that rejects a binding), not yet placed
    guards = [
        (set(_condition_variables(cond)), f"not {_expr_source(cond, local, True)}")
        for cond in conditions
    ]
    # A negated atom is a test: one key lookup where its bound columns are
    # exactly the key, else a call of the table's prober; its own
    # conditions are tested on the row found, its local variables read
    # from that row's columns.
    negated_reads = []
    for k, (_, terms, tests) in enumerate(negated):
        n = len(body) + k
        columns = tuple(
            i for i, term in enumerate(terms)
            if isinstance(term, int) or term in local
        )
        found = f"m{n}"
        scope = dict(local)
        residual = []
        for i, term in enumerate(terms):
            if isinstance(term, str) and term not in local:
                if term in scope:  # repeated inside the atom
                    residual.append(f"{found}[{i}] == {scope[term]}")
                else:
                    scope[term] = f"{found}[{i}]"
        residual += [_expr_source(cond, scope, True) for cond in tests]
        passes = " and ".join(residual)
        access = tables[n].access(columns)
        if access.kind == "key" and not access.checks:
            row = f"held{n}(get{n}({key_of([terms[i] for i in access.positions])}))"
            if residual:
                test = f"({found} := {row}) is not None and {passes}"
            else:
                test = f"{row} is not None"
            negated_reads.append((f"(get{n}, held{n}, stale{n})", columns, access))
        else:
            test = f"probe{n}({row_of(terms[i] for i in columns)})"
            if residual:
                test = f"any({passes} for {found} in {test})"
            negated_reads.append((f"probe{n}", columns, None))
        outer = {t for t in _atom_variables(terms) if t in local}
        for cond in tests:
            outer.update(name for name in _condition_variables(cond) if name in local)
        guards.append((outer, test))

    hoisted: list[str] = []  # tests and probes no loop variable feeds, run once
    functions: list[list[str]] = []  # where a join longer than _MAX_NEST goes on
    loops = lines = []  # ``run``'s own loops; the function being emitted
    pad = "    "
    nest = 0  # loops open in the function being emitted
    bound: set[str] = set()
    assigned: list[str] = []  # the locals set so far
    reads: list[str] = []  # how ``run`` unpacks ``probes``
    accesses: list[tuple[bool, int, tuple[int, ...], Access | None]] = []

    def place_guards() -> None:
        for guard in [g for g in guards if g[0] <= bound]:
            guards.remove(guard)
            lines.append(f"{pad}if {guard[1]}: {reject}")

    reject = "return out"  # leaves the step in hand: ``continue`` inside a loop
    # Tests that read parameters only come first, before any probe: a rule
    # they reject reads no row.
    lines = hoisted
    place_guards()
    lines = loops
    for depth, (position, columns, access) in enumerate(order):
        if nest == _MAX_NEST:
            function = f"join{depth}({', '.join(assigned)})"
            lines.append(pad + function)
            lines = [f"    def {function}:"]
            functions.append(lines)
            pad = "        "
            nest = 0
            reject = "return out"
        terms = body[position][1]
        row = f"r{depth}"
        invariant = all(isinstance(terms[i], int) for i in columns)
        if access.kind in ("key", "index"):
            # The table's probe loop (``Table.prober``), inline: the bucket
            # of the bound values, every candidate looked up in the rows
            # this execution holds, the bound columns the dict does not
            # cover compared after.
            reads.append(f"(get{depth}, held{depth}, stale{depth})")
            if access.kind == "key":
                lookup = f"get{depth}({key_of([terms[i] for i in access.positions])})"
            else:  # one ``get`` per level of the index
                lead, *rest = (value(terms[i]) for i in access.positions)
                lookup = f"get{depth}({lead})"
                if rest:
                    inner = rest[0] if len(rest) == 1 else f"({', '.join(rest)})"
                    lookup = f"get{depth}({lead}, NO_ROWS).get({inner})"
            rowid = f"i{depth}"
            if access.kind == "key":
                lines.append(f"{pad}{rowid} = {lookup}")
                lines.append(f"{pad}if {rowid} is None: {reject}")
            else:
                bucket = f"b{depth}"
                # list(): the owner may add to the bucket while a fork reads it.
                snapshot = f"({bucket},) if type({bucket}) is int else list({bucket})"
                if invariant:
                    hoisted.append(f"    {bucket} = {lookup}")
                    hoisted.append(f"    if {bucket} is None: return out")
                    hoisted.append(f"    {bucket} = {snapshot}")
                    snapshot = bucket
                else:
                    lines.append(f"{pad}{bucket} = {lookup}")
                    lines.append(f"{pad}if {bucket} is None: {reject}")
                lines.append(f"{pad}for {rowid} in {snapshot}:")
                pad += "    "
                nest += 1
                reject = "continue"
            lines.append(f"{pad}{row} = held{depth}({rowid})")
            lines.append(f"{pad}if {row} is None:")
            lines.append(f"{pad}    stale{depth}(1)")
            lines.append(f"{pad}    {reject}")
            for i in columns:
                if i not in access.positions:
                    lines.append(f"{pad}if {row}[{i}] != {value(terms[i])}: {reject}")
        else:
            reads.append(f"probe{depth}")
            call = f"probe{depth}({row_of(terms[i] for i in columns)})"
            if invariant:
                hoisted.append(f"    rows{depth} = {call}")
                call = f"rows{depth}"
            lines.append(f"{pad}for {row} in {call}:")
            pad += "    "
            nest += 1
            reject = "continue"
            access = None
        first: dict[str, int] = {}  # the variables this atom binds
        for i, term in enumerate(terms):
            if i in columns:
                continue
            if term in first:  # repeated inside the atom
                lines.append(f"{pad}if {row}[{i}] != {row}[{first[term]}]: {reject}")
            else:
                first[term] = i
                if uses[term] > 1:
                    lines.append(f"{pad}{local[term]} = {row}[{i}]")
                    assigned.append(local[term])
        bound.update(first)
        accesses.append((False, position, columns, access))
        place_guards()
        if counted:
            lines.append(f"{pad}counts[{depth}] += 1")
    for k, (read, columns, access) in enumerate(negated_reads):
        reads.append(read)
        accesses.append((True, k, columns, access))
    lines.append(f"{pad}add({row_of(head[1])})")

    source = "\n".join(
        [
            f"def run(params, probes{', counts' if counted else ''}):",
            f"    ({''.join(f'p{i}, ' for i in range(nparams))}) = params",
            f"    ({''.join(f'{read}, ' for read in reads)}) = probes",
            "    out = set()",
            "    add = out.add",
            *hoisted,
            *(line for function in functions for line in function),
            *loops,
            "    return out",
        ]
    )
    namespace: dict[str, Any] = {"compare": compare, "NO_ROWS": NO_ROWS}
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
    """(shape, catalog, counted) -> plan, least recently used evicted first;
    thread-safe.

    Two threads that miss on one key both compile it and the later store
    wins: either plan is right for every execution the key admits.
    """

    #: Fixed: a steady statement mix has a few dozen shapes, and a plan is
    #: about a kilobyte of source plus its code object.
    capacity = 256

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._plans: OrderedDict[tuple, RulePlan] = OrderedDict()
        self._compiles = 0
        self._hits = 0

    def get(self, key: tuple) -> RulePlan | None:
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self._hits += 1
            return plan

    def put(self, key: tuple, plan: RulePlan) -> None:
        """Store a newly compiled plan, evicting beyond the capacity."""
        with self._lock:
            self._compiles += 1
            self._plans[key] = plan
            self._plans.move_to_end(key)
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


#: The process's one plan cache. A plan depends on nothing but its key, so
#: every database and every MVCC version in the process shares it.
_PLANS = _PlanCache()


def plan_cache_stats() -> dict[str, int]:
    """``{compiles, hits, size, capacity}`` of the process-wide plan cache."""
    return _PLANS.stats()


# -- unfolding -----------------------------------------------------------------
#
# Algorithm 1 names one temporary per modal subgoal and a final query over
# them; an RDBMS would flatten that nest into one join, and so does
# :func:`unfold`. Evaluated as listed, every ``T_i`` is computed in isolation
# — no rule sees another's bindings — and materialized whole.


def _rename_atom(atom: Atom, term_of: Callable[[str], Term]) -> Atom:
    return Atom(
        atom.table,
        tuple([term_of(t.name) if type(t) is Var else t for t in atom.terms]),
    )


def _rename_negated(
    negated: NegatedAtom, term_of: Callable[[str], Term]
) -> NegatedAtom:
    return NegatedAtom(
        _rename_atom(negated.atom, term_of),
        tuple([_rename_expr(c, term_of) for c in negated.conditions]),
    )


def _rename_expr(expr: Expr, term_of: Callable[[str], Term]) -> Expr:
    kind = type(expr)
    if kind is Ref:
        term = term_of(expr.name)
        return Ref(term.name) if type(term) is Var else Const(term)
    if kind is Cmp:
        return Cmp(
            expr.op, _rename_expr(expr.left, term_of), _rename_expr(expr.right, term_of)
        )
    if kind is And or kind is Or:
        return kind(tuple([_rename_expr(item, term_of) for item in expr.items]))
    if kind is Not:
        return Not(_rename_expr(expr.item, term_of))
    return expr


def _variables(rule: Rule) -> set[str]:
    names = set(rule.head.variables())
    for atom in rule.body:
        names |= atom.variables()
    for negated in rule.negated:
        names |= negated.variables()
    for condition in rule.conditions:
        names |= condition.variables()
    return names


def _inline(rule: Rule, definitions: dict[str, Rule]) -> Rule:
    """``rule`` with each body atom over a table in ``definitions`` replaced
    by the body of the rule that derives it (taken out of ``definitions``):
    the atom's terms unified with that rule's head, its other variables
    renamed apart, its conditions and negated atoms carried along. Where
    a head term and an atom term are two constants and either is a
    :class:`Param`, whether they are equal is known only when the program
    runs: the rule gets the condition that they are."""
    ours: dict[str, Term] = {}  # what unification binds this rule's variables to

    def walk(term: Term) -> Term:
        while type(term) is Var and term.name in ours:
            term = ours[term.name]
        return term

    #: (position, the deriving rule, its variables in this rule's terms)
    inlined: list[tuple[int, Rule, dict[str, Term]]] = []
    satisfiable = True
    unknown: list[Expr] = []  # equalities of constants only a run can decide
    for at, atom in enumerate(rule.body):
        definition = definitions.pop(atom.table, None)
        if definition is None:
            continue
        theirs: dict[str, Term] = {}
        for derived, read in zip(definition.head.terms, atom.terms):
            if type(derived) is Var:
                if derived.name not in theirs:
                    theirs[derived.name] = read
                    continue
                derived = theirs[derived.name]
            derived, read = walk(derived), walk(read)
            if derived == read:
                continue
            if type(read) is Var:
                ours[read.name] = derived
            elif type(derived) is Var:
                ours[derived.name] = read
            elif type(derived) is Param or type(read) is Param:
                unknown.append(Cmp("=", Const(derived), Const(read)))
            else:  # two constants that differ: the atom matches nothing
                satisfiable = False
        inlined.append((at, definition, theirs))
    if not inlined:
        return rule

    def ours_term(name: str) -> Term:
        return walk(Var(name))

    taken = _variables(rule)
    body = [[_rename_atom(atom, ours_term)] for atom in rule.body]
    conditions = [_rename_expr(c, ours_term) for c in rule.conditions]
    conditions += unknown
    negated = [_rename_negated(n, ours_term) for n in rule.negated]
    for at, definition, theirs in inlined:

        def term_of(name: str) -> Term:
            if name not in theirs:  # not in the head: keep the name if free
                fresh = name
                while fresh in taken:
                    fresh += "'"
                taken.add(fresh)
                theirs[name] = Var(fresh)
            return walk(theirs[name])  # (the head may bind it to None)

        body[at] = [_rename_atom(atom, term_of) for atom in definition.body]
        conditions += [_rename_expr(c, term_of) for c in definition.conditions]
        negated += [_rename_negated(n, term_of) for n in definition.negated]
    if not satisfiable:
        conditions.append(Const(False))
    return Rule(
        _rename_atom(rule.head, ours_term),
        tuple([atom for atoms in body for atom in atoms]),
        tuple(conditions),
        tuple(negated),
    )


def _components(rule: Rule, taken: Collection[str]) -> list[Rule]:
    """``rule`` as one rule per connected component of its body's variable
    graph, and a last one joining them.

    Atoms that share no variable multiply; inside one nest of loops the
    second group would be probed again for every row of the first. Each
    group of two atoms or more becomes a rule of its own, deriving the
    group's variables that the rest of the rule reads, with the conditions
    and negated atoms that read no other variable; the last rule reads the
    derived tables beside what is left. A rule of one component is
    returned as it is.
    """
    group: dict[str, int] = {}  # variable -> its group, named by a position
    members: dict[int, list[int]] = {}
    for position, atom in enumerate(rule.body):
        positions = [position]
        for joined in {group[name] for name in atom.variables() if name in group}:
            positions += members.pop(joined)
        members[position] = positions
        for i in positions:
            group.update(dict.fromkeys(rule.body[i].variables(), position))
    joins = [sorted(positions) for positions in members.values() if len(positions) > 1]
    if len(members) < 2 or not joins:
        return [rule]
    binds = [
        frozenset().union(*(rule.body[i].variables() for i in positions))
        for positions in joins
    ]

    def place(items: Iterable, variables: Callable) -> list[list]:
        """``items`` by the group that binds all they read; last, the rest."""
        placed: list[list] = [[] for _ in range(len(joins) + 1)]
        for item in items:
            names = variables(item)
            homes = [n for n, bound in enumerate(binds) if names and names <= bound]
            placed[homes[0] if homes else -1].append(item)
        return placed

    # A negated atom reads the body's variables it names; the others are
    # its own (bound by the row it finds).
    outer = _body_variables(rule)
    conditions = place(rule.conditions, lambda c: c.variables())
    negated = place(rule.negated, lambda n: n.variables() & outer)
    read = set(rule.head.variables())
    read.update(*(c.variables() for c in conditions[-1]))
    read.update(*(n.variables() & outer for n in negated[-1]))

    rules = []
    body: list[Atom | None] = list(rule.body)
    for n, positions in enumerate(joins):
        name = f"{rule.head.table}.{n}"
        while name in taken:
            name += "'"
        # A group nothing is read from still has to derive something.
        terms = tuple(Var(v) for v in sorted(binds[n] & read)) or (True,)
        head = Atom(name, terms)
        rules.append(
            Rule(head, [rule.body[i] for i in positions], conditions[n], negated[n])
        )
        body[positions[0]] = head
        for i in positions[1:]:
            body[i] = None
    rules.append(
        Rule(rule.head, [a for a in body if a is not None], conditions[-1], negated[-1])
    )
    return rules


def unfold(program: Program, tables: Collection[str]) -> Program:
    """``program`` with its single-use temporaries unfolded into the rules
    that read them: the same answers from fewer (often no) temporaries.

    A temporary is a head table that is not among ``tables``. It is unfolded
    when exactly one rule derives it (not from itself), and exactly one body
    atom of a later rule — and no negated atom — reads it: that atom is
    replaced by the deriving rule's body (:func:`_inline`), and the deriving
    rule is dropped. Each rule that comes out is then split into its
    connected components (:func:`_components`). Everything else — a table
    read twice, derived twice, or appended to — stays as listed.
    """
    rules = list(program.rules)
    derived = Counter(rule.head.table for rule in rules)
    readers: dict[str, list[int]] = {}  # table -> the rules reading it
    for n, rule in enumerate(rules):
        for atom in rule.body:
            readers.setdefault(atom.table, []).append(n)
        for negated in rule.negated:  # never unfolded: as good as read twice
            readers.setdefault(negated.atom.table, []).extend((n, n))
    definitions: dict[str, Rule] = {}
    names = set(tables) | set(derived)
    out = Program()
    for n, rule in enumerate(rules):
        rule = _inline(rule, definitions)
        name = rule.head.table
        reader = readers.get(name, ())
        if (
            name not in tables
            and rule.head.terms
            and derived[name] == len(reader) == 1
            and reader[0] > n
            # ... and nothing it reads changes before its reader runs
            and not {atom.table for atom in rule.body}.intersection(
                between.head.table for between in rules[n + 1:reader[0]]
            )
        ):
            definitions[name] = rule
            continue
        for part in _components(rule, names):
            names.add(part.head.table)
            out.add(part)
    return out


# -- evaluation ----------------------------------------------------------------


def evaluate_rule(
    tables: Mapping[str, Table], rule: Rule, trace: list[str] | None = None
) -> set[Row]:
    """All head tuples derivable by ``rule`` against ``tables``; with
    ``trace``, also appends the plan with the rows out of each join step."""
    return PreparedRule(rule).run(tables, (), trace)


def _temporary(head: Atom) -> Table:
    return Table(TableSchema(head.table, tuple(f"c{i}" for i in range(len(head.terms)))))


def explain_program(tables: Mapping[str, Table], program: Program) -> list[str]:
    """Per rule, the join order and the access paths its plan has on
    ``tables``; nothing is evaluated (a temporary is planned as empty)."""
    scope = dict(tables)
    plans = []
    for rule in program:
        plans.append(PreparedRule(rule).plan(scope)[0].describe(scope, rule))
        if rule.head.terms and rule.head.table not in scope:
            scope[rule.head.table] = _temporary(rule.head)
    return plans


class PreparedProgram:
    """A program prepared once to run many times, each rule a
    :class:`PreparedRule`: a run fills the parameter vectors from its
    values, checks each rule's catalog and runs its plan."""

    __slots__ = ("program", "rules", "_final", "_read")

    def __init__(self, program: Program) -> None:
        self.program = program
        self.rules = [PreparedRule(rule) for rule in program]
        self._final = program.rules[-1].head.table if program.rules else None
        self._read = {
            atom.table
            for rule in program
            for atom in (*rule.body, *(negated.atom for negated in rule.negated))
        }

    def run(
        self,
        tables: Mapping[str, Table],
        values: Sequence[Any] = (),
        keep_temps: bool = False,
        trace: list[str] | None = None,
    ) -> tuple[set[Row], dict[str, Table]]:
        """:func:`run_program` of this program, ``Param(i)`` standing for
        ``values[i]``."""
        scope = tables  # copied before the first temporary goes in
        temps: dict[str, Table] = {}
        result: set[Row] = set()
        final = self._final
        for prepared in self.rules:
            derived = prepared.run(scope, values, trace)
            head = prepared.rule.head
            if head.table == final:
                result = derived if not result else result | derived
            if not head.terms:
                # Boolean rule (0-ary head): nothing to materialize; the
                # result set is ∅ or {()}. Such heads cannot feed later rules.
                continue
            target = scope.get(head.table)
            if target is None:
                if head.table == final and final not in self._read and not keep_temps:
                    continue  # a temporary nobody will read
                if scope is tables:
                    scope = dict(tables)
                target = temps[head.table] = scope[head.table] = _temporary(head)
                target.insert_many(derived)
            else:
                target.insert_many(derived.difference(target))
        return result, (temps if keep_temps else {})


def run_program(
    tables: Mapping[str, Table],
    program: Program,
    keep_temps: bool = False,
    trace: list[str] | None = None,
) -> tuple[set[Row], dict[str, Table]]:
    """Run rules in order; the result is what the rules deriving the last
    rule's head derived — a union, when several do.

    Intermediate heads materialize as temporary tables visible to later rules
    (the result's own head only if some rule reads it). Returns ``(result
    set, temporary tables)``; the caller owns cleanup when ``keep_temps`` is
    set (temporaries live only in the returned dict, the input ``tables``
    mapping is never mutated). ``trace`` collects one line per rule: its
    plan, with the rows that came out of each join step. A program run
    more than once, or with :class:`Param` s, is a :class:`PreparedProgram`.
    """
    return PreparedProgram(program).run(tables, (), keep_temps, trace)
