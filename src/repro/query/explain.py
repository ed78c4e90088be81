"""EXPLAIN for belief conjunctive queries.

Renders what happens to a query on its way to an answer — Algorithm 1's
listing (one temporary-table rule per subgoal and the final rule), the
program the engine runs in its place (the listing unfolded into one join
per connected component, :func:`repro.relational.datalog.unfold`), that
program's plan (join order and access path per atom), the generated SQL
with its parameters, and (optionally) the rows that actually came out of
each join step against a store — in one printable report. Useful for
understanding why a query is slow (a step whose bound columns no index
covers shows ``build(..)`` or ``scan``; a step that lets through far more
rows than the result has is where a q3-style negative subgoal ranges over
every user's world) and for teaching the translation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.query.bcq import BCQuery
from repro.query.sql_gen import generate_sql
from repro.query.translate import evaluated_program, translate_bcq
from repro.relational.datalog import explain_program, run_program
from repro.storage.store import BeliefStore


@dataclass
class ExplainReport:
    """A structured explanation of one query's translation."""

    query: str
    #: Algorithm 1's listing, as the paper prints it.
    datalog_rules: list[str]
    sql: str | None
    sql_params: dict
    empty_reason: str | None = None
    #: The rules the engine evaluates: the listing with its temporaries
    #: unfolded (the listing itself under ``push_selections=False``).
    rewritten_rules: list[str] = field(default_factory=list)
    #: Per evaluated rule: the join order and each atom's access path; with
    #: ``analyze``, the rows that came out of each join step.
    plan: list[str] = field(default_factory=list)
    result_size: int | None = None

    def render(self) -> str:
        lines = [f"Query: {self.query}"]
        if self.empty_reason is not None:
            lines.append(f"  provably empty: {self.empty_reason}")
            return "\n".join(lines)
        lines.append("Datalog (Algorithm 1):")
        for rule in self.datalog_rules:
            lines.append(f"  {rule}")
        if self.rewritten_rules != self.datalog_rules:
            lines.append("Unfolded (what the engine evaluates):")
            for rule in self.rewritten_rules:
                lines.append(f"  {rule}")
        if self.plan:
            lines.append("Plan (join order, bound columns, access path):")
            for step in self.plan:
                lines.append(f"  {step}")
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

    With ``analyze`` the program is actually executed and the plan carries
    the rows out of each join step, the report the result size (like
    ``EXPLAIN ANALYZE``); without it, translation and planning only.
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
    tables = store.engine.tables()
    program = evaluated_program(translation.program, tables, push_selections)
    report = ExplainReport(
        query=str(query),
        datalog_rules=[str(rule) for rule in translation.program],
        sql=generated.sql,
        sql_params=generated.params,
        rewritten_rules=[str(rule) for rule in program],
    )
    if analyze and store.eager:
        result, _ = run_program(tables, program, trace=report.plan)
        report.result_size = len(result)
    else:
        report.plan = explain_program(tables, program)
    return report
