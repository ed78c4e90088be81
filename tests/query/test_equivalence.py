"""Property test: all evaluation paths agree on random databases and queries.

This is the query-layer analogue of incremental-vs-batch: the naive Def. 14
evaluator is the specification; translated Datalog (pushed and unpushed, as
Algorithm 1 lists it and as the engine unfolds it), generated SQL, and the
lazy evaluator must return exactly the same sets.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.statements import NEGATIVE, POSITIVE
from repro.query.bcq import Arith, BCQuery, ModalSubgoal, UserAtom, Variable
from repro.query.lazy import evaluate_lazy
from repro.query.naive import evaluate_naive
from repro.query.sql_gen import evaluate_sql
from repro.query.translate import evaluate_translated, translate_bcq
from repro.relational.datalog import PreparedProgram, unfold
from repro.relational.sqlite_backend import SqliteMirror
from repro.storage.store import BeliefStore
from repro.storage.updates import insert_statement
from tests.strategies import (
    KEYS,
    TINY_SCHEMA,
    USERS,
    VALUES,
    belief_statements,
)

_PATH_VARS = tuple(Variable(n) for n in ("px", "py"))
_ARG_VARS = tuple(Variable(n) for n in ("k", "v"))
#: Of subgoals that share no variable with the ones over the names above.
_APART_PATH_VARS = (Variable("pz"),)
_APART_ARG_VARS = tuple(Variable(n) for n in ("j", "w"))


@st.composite
def path_terms(draw, max_depth: int = 2, variables=_PATH_VARS):
    depth = draw(st.integers(0, max_depth))
    terms = []
    for i in range(depth):
        kind = draw(st.sampled_from(("const", "var")))
        if kind == "const":
            terms.append(draw(st.sampled_from(USERS)))
        else:
            terms.append(draw(st.sampled_from(variables)))
    return tuple(terms)


@st.composite
def arg_terms(draw):
    key = draw(st.sampled_from((_ARG_VARS[0],) + KEYS))
    val = draw(st.sampled_from((_ARG_VARS[1],) + VALUES))
    return (key, val)


@st.composite
def queries(draw):
    """1-3 subgoals over R; negatives and paths mixed freely.

    A 'grounding' positive subgoal with all variables is always included so
    the query is guaranteed safe regardless of what else is drawn.
    """
    subgoals = [
        ModalSubgoal(
            draw(path_terms()), "R", POSITIVE, (_ARG_VARS[0], _ARG_VARS[1])
        )
    ]
    extra = draw(st.integers(0, 2))
    for _ in range(extra):
        sign = draw(st.sampled_from((POSITIVE, NEGATIVE)))
        subgoals.append(
            ModalSubgoal(draw(path_terms()), "R", sign, draw(arg_terms()))
        )
    # A second connected component (sometimes): subgoals over names of
    # their own — grounded by a positive one, then perhaps a negative one
    # whose non-key attribute is a constant.
    if draw(st.booleans()):
        j, w = _APART_ARG_VARS
        apart = path_terms(variables=_APART_PATH_VARS)
        subgoals.append(ModalSubgoal(draw(apart), "R", POSITIVE, (j, w)))
        if draw(st.booleans()):
            val = draw(st.sampled_from((w,) + VALUES))
            subgoals.append(ModalSubgoal(draw(apart), "R", NEGATIVE, (j, val)))
    head_pool = [_ARG_VARS[0], _ARG_VARS[1]] + [
        t for sg in subgoals for t in (*sg.path, *sg.args) if isinstance(t, Variable)
    ]
    head = tuple(
        draw(st.sampled_from(head_pool))
        for _ in range(draw(st.integers(1, 2)))
    )
    predicates = ()
    if draw(st.booleans()):
        predicates = (
            Arith(
                draw(st.sampled_from(("!=", "<", ">="))),
                _ARG_VARS[1],
                draw(st.sampled_from(VALUES)),
            ),
        )
    user_atoms = ()
    if draw(st.booleans()):
        user_atoms = (UserAtom(draw(st.sampled_from(_PATH_VARS)), Variable("nm")),)
    return BCQuery(
        head=head,
        subgoals=tuple(subgoals),
        user_atoms=user_atoms,
        predicates=predicates,
    )


def build_store(statements):
    store = BeliefStore(TINY_SCHEMA)
    for uid in USERS:
        store.add_user(f"user{uid}", uid=uid)
    for stmt in statements:
        insert_statement(store, stmt)
    return store


@given(
    st.lists(belief_statements(max_depth=2), max_size=10),
    queries(),
)
@settings(max_examples=120)
def test_all_backends_agree(statements, query):
    try:
        query.check_safe(TINY_SCHEMA)
    except Exception:
        return  # a rare unsafe draw (head var only in user atom etc.)
    store = build_store(statements)
    reference = evaluate_naive(store.explicit_db, query, users=store.users())
    assert evaluate_translated(store, query) == reference
    assert evaluate_translated(store, query, push_selections=False) == reference
    assert evaluate_lazy(store, query) == reference
    with SqliteMirror() as mirror:
        mirror.sync(store.engine)
        assert evaluate_sql(store, query, mirror) == reference


@given(
    st.lists(belief_statements(max_depth=2), max_size=10),
    queries(),
    st.lists(belief_statements(max_depth=2), min_size=1, max_size=4),
)
@settings(max_examples=150)
def test_unfolded_program_agrees_with_algorithm_1_as_listed(statements, query, later):
    """Def. 14 = Algorithm 1's listing = the listing unfolded, through the one
    evaluator; and a pinned fork keeps answering for its own epoch."""
    try:
        query.check_safe(TINY_SCHEMA)
    except Exception:
        return
    store = build_store(statements)
    reference = evaluate_naive(store.explicit_db, query, users=store.users())
    tables = store.engine.tables()
    for push_selections in (True, False):
        translation = translate_bcq(store.schema, query, push_selections)
        # The path users, resolved on the store, fill the listing's slots.
        values = translation.binding.values(store)
        if translation.is_empty or translation.binding.clash(values):
            assert reference == set()
            continue
        listed = translation.program
        unfolded = unfold(listed, tables)
        assert PreparedProgram(listed).run(tables, values)[0] == reference
        assert PreparedProgram(unfolded).run(tables, values)[0] == reference
        # Every T_i is read once: none is left, whatever was pushed.
        assert not {rule.head.table for rule in unfolded} & {
            rule.head.table for rule in listed.rules[:-1]
        }
    pinned = store.fork_snapshot()
    for stmt in later:
        insert_statement(store, stmt)
    assert evaluate_translated(pinned, query) == reference
    assert evaluate_translated(store, query) == evaluate_naive(
        store.explicit_db, query, users=store.users()
    )


@given(st.lists(belief_statements(max_depth=2), max_size=10))
@settings(max_examples=40)
def test_entailment_probe_queries(statements):
    """Single-statement queries agree with direct entailment (Def. 12/14)."""
    from repro.core.closure import entails
    from repro.core.statements import BeliefStatement

    store = build_store(statements)
    tuples = {s.tuple for s in store.explicit_db.statements()}
    for t in sorted(tuples, key=repr)[:4]:
        for path in [(), (1,), (2, 1)]:
            for sign in (POSITIVE, NEGATIVE):
                query = BCQuery(
                    head=(),
                    subgoals=(
                        ModalSubgoal(path, "R", sign, t.values),
                    ),
                )
                if sign is NEGATIVE:
                    # A lone negative subgoal with constants is safe
                    # (no variables at all).
                    query.check_safe(TINY_SCHEMA)
                expected = entails(
                    store.explicit_db, BeliefStatement(path, t, sign)
                )
                got = evaluate_translated(store, query)
                assert (got == {()}) == expected, (path, t, sign)
