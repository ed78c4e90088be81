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

Two supported refinements over the paper's listing (see DESIGN.md §2):

* adjacency disequalities between neighbouring path positions keep valuations
  inside ``Û*`` (back edges would otherwise let ``Carol·Carol`` slip through);
* selection pushdown (`push_selections=True`): path constants always push
  into the E-chain; sign and attribute constants push only for *positive*
  subgoals — for negative subgoals only the key constant may push, since the
  unstated-negative check needs the other same-key tuples intact (the paper
  makes exactly this observation below its Algorithm 1).

Setting ``push_selections=False`` yields the paper's literal, unpushed form —
kept around as a benchmark ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Collection

from repro.core.statements import POSITIVE
from repro.errors import QueryError, UnknownUserError
from repro.query.bcq import BCQuery, ModalSubgoal, Term, is_var
from repro.relational.datalog import Atom, Program, Rule, Var, run_program, unfold
from repro.relational.expressions import (
    Cmp,
    Const,
    Expr,
    Or,
    Ref,
    conjunction,
    disjunction,
)
from repro.storage.internal_schema import (
    E_TABLE,
    ROOT_WID,
    SIGN_NEG,
    SIGN_POS,
    U_TABLE,
    star_table_name,
    v_table_name,
)
from repro.storage.store import BeliefStore

#: Name of the final head table produced by translated programs.
RESULT_TABLE = "Q_result"


@dataclass(frozen=True)
class Translation:
    """A translated query: a Datalog program, or a provably empty result."""

    program: Program | None
    empty_reason: str | None = None

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


def _adjacency_conditions(path: tuple[Term, ...]) -> list[Expr] | None:
    """Disequalities keeping adjacent path positions distinct (Û*).

    Returns None when two adjacent constants coincide — the whole query is
    then provably empty.
    """
    conditions: list[Expr] = []
    for left, right in zip(path, path[1:]):
        if not is_var(left) and not is_var(right):
            if left == right:
                return None
            continue
        if is_var(left) and is_var(right) and left.name == right.name:
            return None
        conditions.append(Cmp("!=", _term_expr(left), _term_expr(right)))
    return conditions


def translate_bcq(
    store: BeliefStore,
    query: BCQuery,
    push_selections: bool = True,
) -> Translation:
    """Algorithm 1 over the store's internal schema, as a Datalog program."""
    query.check_safe(store.schema)
    program = Program()
    final_body: list[Atom] = []
    final_conditions: list[Expr] = []

    for i, subgoal in enumerate(query.subgoals):
        path = _resolve_path_constants(store, subgoal.path)
        adjacency = _adjacency_conditions(path)
        if adjacency is None:
            return Translation(
                None, f"subgoal {i} repeats a user in adjacent path positions"
            )
        temp = f"T{i}"
        rule, final_atom, conditions = _translate_subgoal(
            store, i, temp, subgoal, path, adjacency, push_selections
        )
        program.add(rule)
        final_body.append(final_atom)
        final_conditions.extend(conditions)

    for j, atom in enumerate(query.user_atoms):
        final_body.append(
            Atom(U_TABLE, (_term(atom.uid), _term(atom.name)))
        )
    for pred in query.predicates:
        final_conditions.append(
            Cmp(pred.op, _term_expr(pred.left), _term_expr(pred.right))
        )

    head = Atom(RESULT_TABLE, tuple(_term(t) for t in query.head))
    program.add(Rule(head, tuple(final_body), tuple(final_conditions)))
    return Translation(program)


def _translate_subgoal(
    store: BeliefStore,
    index: int,
    temp: str,
    subgoal: ModalSubgoal,
    path: tuple[Term, ...],
    adjacency: list[Expr],
    push_selections: bool,
) -> tuple[Rule, Atom, list[Expr]]:
    """Build the ``T_i`` rule, its final-query atom, and final conditions."""
    relation = store.schema.relation(subgoal.relation)
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


def evaluated_program(
    program: Program, tables: Collection[str], push_selections: bool = True
) -> Program:
    """What the engine runs for Algorithm 1's listing ``program``.

    The listing names one temporary per subgoal, and the paper hands that
    nest to an RDBMS whose optimizer flattens it. So does this:
    :func:`repro.relational.datalog.unfold` folds every ``T_i`` into the
    final rule — one join in which a subgoal's probes see the bindings of
    the others, nothing materialized. The unpushed listing is the ablation
    of exactly that (every ``T_i`` whole, selections last) and runs as
    listed.
    """
    return unfold(program, tables) if push_selections else program


def evaluate_translated(
    store: BeliefStore,
    query: BCQuery,
    push_selections: bool = True,
) -> set[tuple]:
    """Translate and run a BCQ on the store's engine; returns the answer set.

    Requires an *eager* store (the valuation tables must materialize the
    entailed worlds); lazy stores evaluate through
    :class:`repro.query.lazy.LazyEvaluator` instead.
    """
    if not store.eager:
        raise QueryError(
            "translated evaluation needs an eager store; "
            "use LazyEvaluator for lazy stores"
        )
    translation = translate_bcq(store, query, push_selections)
    if translation.is_empty:
        return set()
    assert translation.program is not None
    tables = store.engine.tables()
    program = evaluated_program(translation.program, tables, push_selections)
    return run_program(tables, program)[0]
