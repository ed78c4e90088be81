"""EXPLAIN for belief conjunctive queries.

Renders everything Algorithm 1 produces for a query — the per-subgoal
temporary-table rules, the final Datalog rule, the generated SQL with its
parameters, and (optionally) the actual cardinalities of each temporary
table against a store — in one printable report. Useful for understanding
why a query is slow (q3-style negative subgoals ranging over all users blow
up ``T_i``) and for teaching the translation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.query.bcq import BCQuery
from repro.query.sql_gen import generate_sql
from repro.query.translate import RESULT_TABLE, translate_bcq
from repro.relational.datalog import explain_program, run_program
from repro.storage.store import BeliefStore


@dataclass
class ExplainReport:
    """A structured explanation of one query's translation."""

    query: str
    datalog_rules: list[str]
    sql: str | None
    sql_params: dict
    empty_reason: str | None = None
    #: Per rule: the compiled plan's join order and each atom's access path.
    plan: list[str] = field(default_factory=list)
    temp_cardinalities: dict[str, int] = field(default_factory=dict)
    result_size: int | None = None

    def render(self) -> str:
        lines = [f"Query: {self.query}"]
        if self.empty_reason is not None:
            lines.append(f"  provably empty: {self.empty_reason}")
            return "\n".join(lines)
        lines.append("Datalog (Algorithm 1):")
        for rule in self.datalog_rules:
            lines.append(f"  {rule}")
        if self.plan:
            lines.append("Plan (join order, bound columns, access path):")
            for step in self.plan:
                lines.append(f"  {step}")
        if self.temp_cardinalities:
            lines.append("Temporary-table cardinalities:")
            for name, count in self.temp_cardinalities.items():
                lines.append(f"  {name}: {count:,} rows")
        if self.result_size is not None:
            lines.append(f"Result size: {self.result_size:,} rows")
        if self.sql is not None:
            lines.append("SQL (for the SQLite mirror):")
            lines.append(f"  {self.sql}")
            lines.append(f"  params: {self.sql_params}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def explain(
    store: BeliefStore,
    query: BCQuery,
    analyze: bool = False,
    push_selections: bool = True,
) -> ExplainReport:
    """Explain ``query`` against ``store``.

    With ``analyze`` the translated program is actually executed and the
    report includes each temporary table's cardinality and the result size
    (like ``EXPLAIN ANALYZE``); without it, translation only.
    """
    query.check_safe(store.schema)
    translation = translate_bcq(store, query, push_selections=push_selections)
    generated = generate_sql(store, query)
    if translation.is_empty:
        return ExplainReport(
            query=str(query),
            datalog_rules=[],
            sql=generated.sql,
            sql_params=generated.params,
            empty_reason=translation.empty_reason,
        )
    assert translation.program is not None
    report = ExplainReport(
        query=str(query),
        datalog_rules=[str(rule) for rule in translation.program],
        sql=generated.sql,
        sql_params=generated.params,
    )
    tables = store.engine.tables()
    if analyze and store.eager:
        result, temps = run_program(tables, translation.program, keep_temps=True)
        tables.update(temps)
        report.temp_cardinalities = {
            name: len(table)
            for name, table in sorted(temps.items())
            if name != RESULT_TABLE  # reported as result_size instead
        }
        report.result_size = len(result)
    report.plan = explain_program(tables, translation.program)
    return report
