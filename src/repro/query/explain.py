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

A bound ``WITH`` select explains the same way: its rules
(:func:`repro.query.translate.translate_with`, the guarded one-scan rule
among them) are what the engine evaluates, and no SQL is generated for it.

The rules are printed as translated — once, as a template: a parameter or
a user a path names is a ``?i``, and the values they stood for in this run
(the users resolved on ``store``) are listed under them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.query.bcq import BCQuery
from repro.query.sql_gen import generate_sql
from repro.query.translate import Query, TranslatedQuery
from repro.relational.datalog import explain_program
from repro.storage.store import BeliefStore


@dataclass
class ExplainReport:
    """A structured explanation of one query's translation."""

    query: str
    #: Algorithm 1's listing, as the paper prints it (for a ``WITH``
    #: select: its rules over the explicit rows and the lifecycle
    #: relations).
    datalog_rules: list[str]
    sql: str | None
    sql_params: dict
    empty_reason: str | None = None
    #: The rules the engine evaluates: the listing with its temporaries
    #: unfolded (the listing itself under ``push_selections=False``).
    rewritten_rules: list[str] = field(default_factory=list)
    #: What each ``?i`` of the rules stood for.
    values: list = field(default_factory=list)
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
        if self.values:
            values = (f"?{i} = {v!r}" for i, v in enumerate(self.values))
            lines.append("Values: " + ", ".join(values))
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
    query: Query,
    analyze: bool = False,
    push_selections: bool = True,
) -> ExplainReport:
    """Explain ``query`` (a BCQ or a bound ``WITH`` select) against ``store``.

    With ``analyze`` the program is actually executed and the plan carries
    the rows out of each join step, the report the result size (like
    ``EXPLAIN ANALYZE``); without it, translation and planning only.
    """
    sql, sql_params = None, {}
    if isinstance(query, BCQuery):
        query.check_safe(store.schema)
        generated = generate_sql(store, query)
        sql, sql_params = generated.sql, generated.params
    translation, prepared, values = TranslatedQuery(query, push_selections).prepare(
        store
    )
    if prepared is None:
        return ExplainReport(
            query=str(query),
            datalog_rules=[],
            sql=sql,
            sql_params=sql_params,
            empty_reason=translation.empty_reason or translation.binding.clash(values),
        )
    assert translation.program is not None
    tables = store.engine.tables()
    report = ExplainReport(
        query=str(query),
        datalog_rules=[str(rule) for rule in translation.program],
        sql=sql,
        sql_params=sql_params,
        rewritten_rules=[str(rule) for rule in prepared.program],
        values=values,
    )
    if analyze and (store.eager or not isinstance(query, BCQuery)):
        result, _ = prepared.run(tables, values, trace=report.plan)
        report.result_size = len(result)
    else:
        report.plan = explain_program(tables, prepared.program)
    return report
