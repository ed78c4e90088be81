"""Algorithm 1: translating BCQs over the canonical representation.

For each modal subgoal ``w̄_i R_i^{s_i}(x̄_i)`` the translation creates a
temporary table

    ``T_i(w̄_i, x̄, s) :- E*(0, w̄_i, z), V_i(z, t, k, s, e), star_i(t, x̄)``

where ``E*`` is the chain of ``E`` joins grounding the belief path from the
root, and then composes a final query joining the ``T_i`` with per-subgoal
conditions: positive subgoals pin ``s='+'`` and unify the relational tuple;
negative subgoals unify the *key* and accept either a stated negative
(``s='-'`` with all attributes equal) or an unstated negative (``s='+'`` with
some attribute differing) — Prop. 7 in relational clothing.

Two supported refinements over the paper's listing (``docs/architecture.md``,
"Deviations from the paper"):

* adjacency disequalities between neighbouring path positions keep valuations
  inside ``Û*`` (back edges would otherwise let ``Carol·Carol`` slip through);
* selection pushdown (`push_selections=True`): path constants always push
  into the E-chain; sign and attribute constants push only for *positive*
  subgoals — for negative subgoals only the key constant may push, since the
  unstated-negative check needs the other same-key tuples intact (the paper
  makes exactly this observation below its Algorithm 1).

Setting ``push_selections=False`` yields the paper's literal, unpushed form —
kept around as a benchmark ablation.

A select with a ``WITH`` lifecycle clause (:class:`~repro.query.bcq.
LifecycleSelect`) translates through the same pieces plus the lifecycle
relations, into rules that are already one join each
(:func:`translate_with`).

**Translate once.** A query is translated as a *template*: what the
translation cannot see through stays an opaque constant, a
:class:`~repro.relational.datalog.Param` — a ``?`` parameter, and every
user a BELIEF path names, because which uid a name denotes is the store's
business (and a user may be registered after the statement is prepared).
So a translation is keyed on the query and the schema alone, never on the
user registry or a parameter value — but for ``DERIVED FROM``, whose rules
depend on whether its value is a belief id and whether it names a user
(:func:`translate_with`). :class:`TranslatedQuery` translates (and
unfolds) once and keeps the prepared program, one per such variant; a run
makes the value vector on the store it reads (:class:`Binding`) and runs
the held plans.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence, Union

from repro.core.schema import ExternalSchema
from repro.core.statements import POSITIVE
from repro.errors import QueryError, UnknownUserError
from repro.lifecycle.model import ACTIVE, is_belief_id
from repro.query.bcq import BCQuery, LifecycleSelect, ModalSubgoal, Term, is_var
from repro.relational.datalog import (
    ANY,
    Atom,
    NegatedAtom,
    Param,
    PreparedProgram,
    Program,
    Rule,
    Var,
    unfold,
)
from repro.relational.expressions import (
    Cmp,
    Const,
    Expr,
    Not,
    Ref,
    conjunction,
    disjunction,
)
from repro.storage.internal_schema import (
    D_TABLE,
    DERIVES_TABLE,
    E_TABLE,
    EXPLICIT_YES,
    LIFECYCLE_TABLE,
    ROOT_WID,
    SIGN_NEG,
    SIGN_POS,
    U_TABLE,
    star_table_name,
    v_table_name,
)
from repro.storage.store import BeliefStore

#: What :func:`evaluate_translated` answers.
Query = Union[BCQuery, LifecycleSelect]

#: Name of the final head table produced by translated programs.
RESULT_TABLE = "Q_result"


@dataclass(frozen=True)
class Binding:
    """How a translated program's values are made for one run.

    ``Param(i)`` stands, for ``i < base``, for the query's ``i``-th
    parameter, and for ``i = base + j`` for the user ``users[j]`` (a
    parameter or a literal) names on the store the run reads: its uid, or —
    for a reference nobody registered — the reference itself, which joins
    to nothing in ``E`` (Def. 14: no such world, no answer). ``distinct``
    pairs the slots of adjacent path users, with why the answer is empty
    when they coincide (the path would leave ``Û*``).
    """

    base: int = 0
    users: tuple[Any, ...] = ()
    distinct: tuple[tuple[int, int, str], ...] = ()

    def values(self, store: BeliefStore, params: Sequence[Any] = ()) -> list[Any]:
        values = list(params[: self.base])
        for user in self.users:
            ref = values[user.index] if type(user) is Param else user
            try:
                values.append(store.resolve_user(ref))
            except UnknownUserError:
                values.append(ref)
        return values

    def clash(self, values: Sequence[Any]) -> str | None:
        """Why ``values`` make the answer empty, if they do."""
        for left, right, reason in self.distinct:
            if values[left] == values[right]:
                return reason
        return None


class _Slots:
    """Lays a :class:`Binding` out: a slot per path user, after the slots of
    the query's own parameters."""

    def __init__(self, terms: Iterable[Any]) -> None:
        self.base = 1 + max((t.index for t in terms if type(t) is Param), default=-1)
        self.users: list[Any] = []
        self.distinct: list[tuple[int, int, str]] = []

    def user(self, term: Any) -> Param:
        self.users.append(term)
        return Param(self.base + len(self.users) - 1)

    def path(self, path: Iterable[Term], reason: str) -> tuple[Term, ...]:
        """``path`` with a slot for each user it names; adjacent slots must
        hold different users."""
        slotted = tuple(term if is_var(term) else self.user(term) for term in path)
        for left, right in zip(slotted, slotted[1:]):
            if type(left) is Param and type(right) is Param:
                self.distinct.append((left.index, right.index, reason))
        return slotted

    def binding(self) -> Binding:
        return Binding(self.base, tuple(self.users), tuple(self.distinct))


@dataclass(frozen=True)
class Translation:
    """A translated query: a Datalog program whose :class:`Param` s its
    ``binding`` fills, or a provably empty result."""

    program: Program | None
    empty_reason: str | None = None
    binding: Binding = field(default_factory=Binding)

    @property
    def is_empty(self) -> bool:
        return self.program is None


def _qvar(name: str) -> Var:
    """Datalog variable for a query variable (namespaced to avoid clashes)."""
    return Var(f"q_{name}")


def _term(term: Term) -> Any:
    """Map a BCQ term to a Datalog term."""
    return _qvar(term.name) if is_var(term) else term


def _term_expr(term: Term) -> Expr:
    """Map a BCQ term to a condition expression."""
    return Ref(f"q_{term.name}") if is_var(term) else Const(term)


def _adjacency_conditions(path: tuple[Term, ...]) -> list[Expr] | None:
    """Disequalities keeping adjacent path positions distinct (Û*).

    Returns None when one variable stands in two adjacent positions — the
    whole query is then provably empty. Two adjacent users are the
    binding's to compare (:attr:`Binding.distinct`).
    """
    conditions: list[Expr] = []
    for left, right in zip(path, path[1:]):
        if is_var(left) and is_var(right) and left.name == right.name:
            return None
        if is_var(left) or is_var(right):
            conditions.append(Cmp("!=", _term_expr(left), _term_expr(right)))
    return conditions


def _bcq_terms(query: BCQuery) -> Iterable[Term]:
    yield from query.head
    for subgoal in query.subgoals:
        yield from subgoal.path
        yield from subgoal.args
    for atom in query.user_atoms:
        yield from (atom.uid, atom.name)
    for predicate in query.predicates:
        yield from (predicate.left, predicate.right)


def translate_bcq(
    schema: ExternalSchema,
    query: BCQuery,
    push_selections: bool = True,
) -> Translation:
    """Algorithm 1 over ``schema``'s internal schema, as a Datalog program
    whose path users are slots of its binding."""
    query.check_safe(schema)
    slots = _Slots(_bcq_terms(query))
    program = Program()
    final_body: list[Atom] = []
    final_conditions: list[Expr] = []

    for i, subgoal in enumerate(query.subgoals):
        reason = f"subgoal {i} repeats a user in adjacent path positions"
        path = slots.path(subgoal.path, reason)
        adjacency = _adjacency_conditions(path)
        if adjacency is None:
            return Translation(None, reason)
        temp = f"T{i}"
        rule, final_atom, conditions = _translate_subgoal(
            schema, i, temp, subgoal, path, adjacency, push_selections
        )
        program.add(rule)
        final_body.append(final_atom)
        final_conditions.extend(conditions)

    for atom in query.user_atoms:
        final_body.append(
            Atom(U_TABLE, (_term(atom.uid), _term(atom.name)))
        )
    for pred in query.predicates:
        final_conditions.append(
            Cmp(pred.op, _term_expr(pred.left), _term_expr(pred.right))
        )

    head = Atom(RESULT_TABLE, tuple(_term(t) for t in query.head))
    program.add(Rule(head, tuple(final_body), tuple(final_conditions)))
    return Translation(program, binding=slots.binding())


def _translate_subgoal(
    schema: ExternalSchema,
    index: int,
    temp: str,
    subgoal: ModalSubgoal,
    path: tuple[Term, ...],
    adjacency: list[Expr],
    push_selections: bool,
) -> tuple[Rule, Atom, list[Expr]]:
    """Build the ``T_i`` rule, its final-query atom, and final conditions."""
    relation = schema.relation(subgoal.relation)
    depth = len(path)
    arity = relation.arity
    if len(subgoal.args) != arity:
        raise QueryError(
            f"subgoal {subgoal} arity mismatch: {relation.name} has {arity}"
        )

    # --- E* chain: E(z0=root, w1, z1), ..., E(z_{d-1}, wd, z_world)
    body: list[Atom] = []
    previous: Any = ROOT_WID
    world_term: Any = ROOT_WID
    for k, term in enumerate(path):
        z_k = Var(f"s{index}_z{k}")
        body.append(Atom(E_TABLE, (previous, _term(term), z_k)))
        previous = z_k
        world_term = z_k

    tid = Var(f"s{index}_tid")
    e_flag = Var(f"s{index}_e")
    key_term = subgoal.args[0]

    if subgoal.sign is POSITIVE:
        conditions: list[Expr] = []
        # Variables always unify by name (those are joins, which Alg. 1
        # performs in the final query anyway). `push_selections` governs
        # only whether *constants* and the sign restrict T_i itself or are
        # deferred to final-query conditions — the paper's unpushed form.
        sign_term: Any
        if push_selections:
            sign_term = SIGN_POS
        else:
            sign_term = Var(f"s{index}_sign")
            conditions.append(Cmp("=", Ref(sign_term.name), Const(SIGN_POS)))
        star_args: list[Any] = []
        for j, term in enumerate(subgoal.args):
            if is_var(term) or push_selections:
                star_args.append(_term(term))
            else:
                fresh = Var(f"s{index}_a{j}")
                star_args.append(fresh)
                conditions.append(Cmp("=", Ref(fresh.name), Const(term)))
        v_key = star_args[0]
        body.append(
            Atom(v_table_name(relation.name), (world_term, tid, v_key, sign_term, e_flag))
        )
        body.append(Atom(star_table_name(relation.name), (tid, *star_args)))
        head_terms = (
            tuple(_term(t) for t in path) + tuple(star_args) + (sign_term,)
        )
        rule = Rule(Atom(temp, head_terms), tuple(body), tuple(adjacency))
        return rule, _final_atom(index, temp, head_terms), conditions

    # --- negative subgoal: the key unifies (Alg. 1 line 5: x̄ti[1] = x̄i[1]);
    # attributes stay free in T_i and go through the Prop. 7 check.
    sign_var = Var(f"s{index}_sign")
    attr_vars = tuple(Var(f"s{index}_a{j}") for j in range(1, arity))
    # A variable key simply names the column (joined in the final rule); a
    # constant key may be pushed into T_i — the unstated-negative check only
    # ever needs tuples sharing the *same* key, so this pushdown is safe.
    unify_key = is_var(key_term) or push_selections
    v_key = _term(key_term) if unify_key else Var(f"s{index}_k")
    body.append(
        Atom(v_table_name(relation.name), (world_term, tid, v_key, sign_var, e_flag))
    )
    body.append(
        Atom(star_table_name(relation.name), (tid, v_key) + attr_vars)
    )
    head_terms = (
        tuple(_term(t) for t in path) + (v_key,) + attr_vars + (sign_var,)
    )
    rule = Rule(Atom(temp, head_terms), tuple(body), tuple(adjacency))
    final_atom = _final_atom(index, temp, head_terms)

    conditions = []
    if not unify_key:
        conditions.append(Cmp("=", Ref(v_key.name), _term_expr(key_term)))
    stated = conjunction(
        [Cmp("=", Ref(sign_var.name), Const(SIGN_NEG))]
        + [
            Cmp("=", Ref(attr_vars[j - 1].name), _term_expr(subgoal.args[j]))
            for j in range(1, arity)
        ]
    )
    unstated = conjunction(
        [
            Cmp("=", Ref(sign_var.name), Const(SIGN_POS)),
            disjunction(
                [
                    Cmp(
                        "!=",
                        Ref(attr_vars[j - 1].name),
                        _term_expr(subgoal.args[j]),
                    )
                    for j in range(1, arity)
                ]
            ),
        ]
    )
    conditions.append(disjunction([stated, unstated]))
    return rule, final_atom, conditions


def _final_atom(index: int, temp: str, head_terms: tuple[Any, ...]) -> Atom:
    """``T_i`` as the final rule reads it: joined on its variables only.

    Every row of ``T_i`` carries the constants its own head wrote, so the
    final rule does not select on them again (a probe on a column where all
    rows match buys nothing and costs a hash build on the temporary).
    """
    return Atom(
        temp,
        tuple(
            term if isinstance(term, Var) else Var(f"s{index}_c{j}")
            for j, term in enumerate(head_terms)
        ),
    )


def _with_slots(
    select: LifecycleSelect,
) -> tuple[_Slots, tuple, list[tuple[Any, Param]]]:
    """A ``WITH`` select's slots: its path's users, then for each ``DERIVED
    FROM`` filter the user its value may name. Returns the slots, the
    path, and each ``DERIVED FROM`` value with its user's slot."""
    slots = _Slots(
        [
            *select.path,
            *(value for _, _, lv, _, rv in select.where for value in (lv, rv)),
            *(value for _, _, value in select.filters),
        ]
    )
    path = slots.path(select.path, "the path repeats a user in adjacent positions")
    asked = [
        (value, slots.user(value))
        for name, _, value in select.filters if name == "derived_from"
    ]
    return slots, path, asked


def translate_with(
    schema: ExternalSchema,
    select: LifecycleSelect,
    derived: Sequence[tuple[bool, bool, bool]] = (),
) -> Translation:
    """A ``WITH`` select as Datalog over the internal schema and the
    lifecycle relations (:mod:`repro.storage.internal_schema`).

    Lifecycle records annotate explicit statements, so the body is
    Algorithm 1's for one subgoal read exactly: the E-chain for the path,
    closed by ``D(w, |path|)`` (the chain lands on the path's deepest
    suffix state, which is the path's own world only when it is that
    deep), ``v_R(w, tid, key, s, 'y')`` — the explicit rows of the
    select's sign and no others —, ``star_R`` and the WHERE comparisons
    (an attribute's first ``=`` a constant in the atoms). A statement
    passes the filters F when its record does, or when it has no record
    and F holds of ``ACTIVE`` and confidence 1.0; the rules all derive the
    result and the program answers their union:

    * with ``DERIVED FROM``: a tracked rule per way to match — its
      ``lifecycle`` row, status and confidence compared in conditions,
      and per filter the value or the user id it names in the record's
      ``derives`` closure or, for a belief id, the record's own id. No
      rule for untracked statements: their closure is empty. ``derived``
      says, per such filter, whether its value is a belief id, whether it
      names a user (other than itself) and whether that user's id is a
      belief id — the one part of a translation that depends on a value;
    * otherwise two rules, of which a guard that reads parameters only
      lets exactly one read rows. Where F(ACTIVE, 1.0) fails, the tracked
      rule: the record joined, F compared (a status ``=`` as a constant,
      which the ``(wid, status)`` index serves). Where it holds, every
      untracked statement passes, so the answer is every explicit
      statement of the world but the tracked ones that fail — one scan
      of the world with a key probe per row: ``not (lifecycle(w, tid, s,
      _, status, confidence), not F(status, confidence))``. A statement with no
      record stays *not believed* under a negative sign: the rows are
      ``v_R``'s explicit ones of that sign, never its absence.
    """
    slots, path, asked = _with_slots(select)
    relation = schema.relation(select.relation)
    terms: list[Any] = [Var(f"a{j}") for j in range(relation.arity)]
    rest = []
    for comparison in select.where:
        op, li, lv, ri, rv = comparison
        if op == "=" and (li is None) != (ri is None):
            position, value = (li, rv) if ri is None else (ri, lv)
            if type(terms[position]) is Var:
                terms[position] = value
                continue
        rest.append(comparison)

    def operand(position: int | None, value: Any) -> Expr:
        return Const(value) if position is None else _datalog_expr(terms[position])

    conditions = [
        Cmp(op, operand(li, lv), operand(ri, rv)) for op, li, lv, ri, rv in rest
    ]

    body: list[Atom] = []
    world: Any = ROOT_WID
    for k, uid in enumerate(path):
        body.append(Atom(E_TABLE, (world, uid, Var(f"w{k}"))))
        world = Var(f"w{k}")
    if path:
        body.append(Atom(D_TABLE, (world, len(path))))
    tid = Var("tid")
    sign = SIGN_POS if select.sign is POSITIVE else SIGN_NEG
    body.append(
        Atom(v_table_name(relation.name), (world, tid, terms[0], sign, EXPLICIT_YES))
    )
    body.append(Atom(star_table_name(relation.name), (tid, *terms)))
    head = Atom(RESULT_TABLE, tuple(terms[i] for i in select.head))

    pushed = next(
        (i for i, (name, op, _) in enumerate(select.filters)
         if name == "status" and op == "="),
        None,
    )
    status = Var("status") if pushed is None else select.filters[pushed][2]

    def record(belief: Any) -> Atom:
        return Atom(
            LIFECYCLE_TABLE, (world, tid, sign, belief, status, Var("confidence"))
        )

    tracked = list(conditions)
    passes = []  # F on a record's status and confidence
    untracked = []  # F(ACTIVE, 1.0)
    for i, (name, op, value) in enumerate(select.filters):
        if name == "derived_from":
            continue
        column, default = (
            ("status", ACTIVE) if name == "status" else ("confidence", 1.0)
        )
        passes.append(Cmp(op, Ref(column), Const(value)))
        untracked.append(Cmp(op, Const(default), Const(value)))
        if i != pushed:
            term = status if name == "status" else Var("confidence")
            tracked.append(Cmp(op, _datalog_expr(term), Const(value)))

    program = Program()
    if asked:
        ways = [
            _derivation_matches(value, uid, bits)
            for (value, uid), bits in zip(asked, derived, strict=True)
        ]
        for choice in itertools.product(*ways):
            # The record's id is every "own" token: one rule, compared.
            own = list(dict.fromkeys(token for kind, token in choice if kind == "own"))
            closure = [
                Atom(DERIVES_TABLE, (world, token, tid, sign))
                for kind, token in choice if kind == "derives"
            ]
            same = [Cmp("=", Const(own[0]), Const(token)) for token in own[1:]]
            program.add(
                Rule(
                    head,
                    (*body, record(own[0] if own else Var("belief")), *closure),
                    (*tracked, *same),
                )
            )
        return Translation(program, binding=slots.binding())
    default = conjunction(untracked)
    program.add(Rule(head, (*body, record(Var("belief"))), (*tracked, Not(default))))
    fail = Not(conjunction(passes))
    columns = [
        Var(name) if name in fail.variables() else ANY
        for name in ("status", "confidence")
    ]
    fails = NegatedAtom(
        Atom(LIFECYCLE_TABLE, (world, tid, sign, ANY, *columns)), (fail,)
    )
    program.add(Rule(head, tuple(body), (*conditions, default), (fails,)))
    return Translation(program, binding=slots.binding())


def _datalog_expr(term: Any) -> Expr:
    """A Datalog term as a condition operand."""
    return Ref(term.name) if type(term) is Var else Const(term)


def _derivation_matches(
    value: Any, uid: Param, bits: tuple[bool, bool, bool]
) -> list[tuple[str, Any]]:
    """How a statement can be DERIVED FROM ``value``, whose user id (if it
    names a user) fills the slot ``uid``: ``("derives", token)`` for the
    value and that user id, and ``("own", token)`` where one of them is a
    belief id and could be the statement's own. ``bits``: is the value a
    belief id, does it name a user, is that user's id a belief id."""
    is_id, names_user, uid_is_id = bits
    tokens = [(value, is_id)] + ([(uid, uid_is_id)] if names_user else [])
    return [("derives", token) for token, _ in tokens] + [
        ("own", token) for token, own in tokens if own
    ]


class TranslatedQuery:
    """A query translated once and run many times: bind + run.

    The first run translates ``query`` into its template (:func:`translate_bcq`,
    unfolded — the unpushed listing, ``push_selections=False``, is the
    ablation of exactly that and runs as listed —, or :func:`translate_with`)
    and prepares the program (:class:`~repro.relational.datalog.
    PreparedProgram`: every rule's shape taken once, its plan held with the
    catalog it was compiled for); a ``WITH`` select keeps one per ``DERIVED
    FROM`` variant it meets. Every run makes the value vector on the store
    it reads (:class:`Binding`), answers ∅ when adjacent path users
    coincide, and runs the prepared rules on that store's tables. What it
    keeps depends on the query and the schema alone, so one object serves
    every store of the schema: each MVCC version, a restored store.
    """

    def __init__(self, query: Query, push_selections: bool = True) -> None:
        self.query = query
        self.push_selections = push_selections
        self._asked: list[tuple[Any, Param]] = []
        self._binding: Binding | None = None
        if isinstance(query, LifecycleSelect):
            slots, _, self._asked = _with_slots(query)
            self._binding = slots.binding()
        #: variant -> (its translation, its prepared program or None)
        self._programs: dict[Any, tuple[Translation, PreparedProgram | None]] = {}

    def prepare(
        self, store: BeliefStore, params: Sequence[Any] = ()
    ) -> tuple[Translation, PreparedProgram | None, list[Any]]:
        """``(translation, prepared program, value vector)`` for a run on
        ``store`` with ``params``; the program is None when the answer is
        provably empty."""
        if self._binding is None:  # a BCQ's first run
            self._binding = self._translate(store, None)[0].binding
        values = self._binding.values(store, params)
        key = self._variant(values) if self._asked else None
        translation, program = self._programs.get(key) or self._translate(store, key)
        if self._binding.clash(values) is not None:
            program = None
        return translation, program, values

    def run(self, store: BeliefStore, params: Sequence[Any] = ()) -> set[tuple]:
        _, program, values = self.prepare(store, params)
        if program is None:
            return set()
        return program.run(store.engine.tables(), values)[0]

    def _variant(self, values: Sequence[Any]) -> tuple:
        """Per ``DERIVED FROM`` filter: is its value a belief id, does it
        name a user, is that user's id a belief id."""
        bits = []
        for value, uid in self._asked:
            if type(value) is Param:
                value = values[value.index]
            named = values[uid.index]
            user = named != value
            bits.append((is_belief_id(value), user, user and is_belief_id(named)))
        return tuple(bits)

    def _translate(
        self, store: BeliefStore, key: Any
    ) -> tuple[Translation, PreparedProgram | None]:
        query = self.query
        if isinstance(query, LifecycleSelect):
            translation = translate_with(store.schema, query, key)
            program = translation.program
        else:
            translation = translate_bcq(store.schema, query, self.push_selections)
            program = translation.program
            if program is not None and self.push_selections:
                # The listing names one temporary per subgoal, and the paper
                # hands that nest to an RDBMS whose optimizer flattens it:
                # so does this, into one join per connected component.
                program = unfold(program, store.engine.tables())
        entry = (translation, None if program is None else PreparedProgram(program))
        self._programs[key] = entry
        return entry


def evaluate_translated(
    store: BeliefStore,
    query: Query | TranslatedQuery,
    push_selections: bool = True,
    params: Sequence[Any] = (),
) -> set[tuple]:
    """Answer a query on the store's engine through its translation; returns
    the answer set.

    ``query`` is a BCQ or a bound ``WITH`` select, translated for this one
    call, or a :class:`TranslatedQuery` — a prepared select's, translated
    once — run with ``params``. A BCQ requires an *eager* store (the
    valuation tables must materialize the entailed worlds; lazy stores
    evaluate through :class:`repro.query.lazy.LazyEvaluator`); a ``WITH``
    select reads explicit rows only, which every store holds.
    """
    if not isinstance(query, TranslatedQuery):
        query = TranslatedQuery(query, push_selections)
    if not store.eager and isinstance(query.query, BCQuery):
        raise QueryError(
            "translated evaluation needs an eager store; "
            "use LazyEvaluator for lazy stores"
        )
    return query.run(store, params)
