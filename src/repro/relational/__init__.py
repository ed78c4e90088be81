"""From-scratch relational engine substrate.

Provides the pieces the paper obtains from its RDBMS: indexed row storage,
a non-recursive Datalog evaluator (the target language of Algorithm 1), and
a SQLite mirror for executing generated SQL.
"""

from repro.relational.database import RelationalDatabase
from repro.relational.datalog import (
    Atom,
    NegatedAtom,
    Program,
    Rule,
    Var,
    evaluate_rule,
    run_program,
    unfold,
)
from repro.relational.expressions import (
    And,
    Cmp,
    Const,
    Expr,
    Not,
    Or,
    Ref,
    compare,
    conjunction,
    disjunction,
    eq,
    neq,
)
from repro.relational.schema import TableSchema
from repro.relational.sqlite_backend import SqliteMirror, quote_identifier
from repro.relational.table import Row, Table

__all__ = [
    "And",
    "Atom",
    "Cmp",
    "Const",
    "Expr",
    "NegatedAtom",
    "Not",
    "Or",
    "Program",
    "Ref",
    "RelationalDatabase",
    "Row",
    "Rule",
    "SqliteMirror",
    "Table",
    "TableSchema",
    "Var",
    "compare",
    "conjunction",
    "disjunction",
    "eq",
    "evaluate_rule",
    "neq",
    "quote_identifier",
    "run_program",
    "unfold",
]
