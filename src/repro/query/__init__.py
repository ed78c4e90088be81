"""Belief conjunctive queries: AST, parsing, and the four evaluation paths.

1. :func:`evaluate_naive` — reference semantics straight from Def. 14;
2. :func:`evaluate_translated` — Algorithm 1 → non-recursive Datalog on the
   in-memory engine (the paper's main path);
3. :func:`evaluate_sql` — the same translation rendered to SQL, on the
   SQLite mirror (the paper's deployment on a commercial RDBMS);
4. :func:`evaluate_lazy` — query-time default application on a lazy store
   (the Sect. 6.3 future-work alternative).

All four return identical answer sets; the test suite enforces it.
"""

from repro.query.bcq import (
    Arith,
    BCQuery,
    ModalSubgoal,
    Term,
    UserAtom,
    Variable,
    is_var,
    make_vars,
    var,
)
from repro.query.explain import ExplainReport, explain
from repro.query.lazy import evaluate_lazy
from repro.query.naive import evaluate_naive
from repro.query.parser import parse_bcq
from repro.query.sql_gen import GeneratedSQL, evaluate_sql, generate_sql
from repro.query.translate import (
    RESULT_TABLE,
    Translation,
    evaluate_translated,
    translate_bcq,
)

__all__ = [
    "Arith",
    "BCQuery",
    "ExplainReport",
    "GeneratedSQL",
    "ModalSubgoal",
    "RESULT_TABLE",
    "Term",
    "Translation",
    "UserAtom",
    "Variable",
    "evaluate_lazy",
    "evaluate_naive",
    "evaluate_sql",
    "evaluate_translated",
    "explain",
    "generate_sql",
    "is_var",
    "make_vars",
    "parse_bcq",
    "translate_bcq",
    "var",
]
