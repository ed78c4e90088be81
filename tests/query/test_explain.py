"""EXPLAIN reports for translated queries."""

import re

from repro.query.explain import explain
from repro.query.naive import evaluate_naive
from repro.query.parser import parse_bcq


def _rows(step: str) -> int:
    """The "(n rows)" at the end of an analyzed plan step."""
    return int(re.search(r"\((\d+) rows\)$", step).group(1))


def q(example_store, text):
    return parse_bcq(text, example_store.schema)


class TestExplain:
    def test_translation_only(self, example_store):
        report = explain(
            example_store,
            q(example_store, "q(k) :- ['Bob'] Sightings+(k, z, sp, u, v)"),
        )
        assert len(report.datalog_rules) == 2  # T0 + final rule
        assert report.sql is not None and "SELECT DISTINCT" in report.sql
        assert report.result_size is None
        text = report.render()
        assert "Datalog (Algorithm 1):" in text
        assert "v_Sightings" in text

    def test_analyze_reports_the_rows_out_of_each_join_step(self, example_store):
        report = explain(
            example_store,
            q(
                example_store,
                "q(x) :- [x] Sightings-(k, z, sp, u, v), "
                "[1] Sightings+(k, z, sp, u, v)",
            ),
            analyze=True,
        )
        assert report.result_size == 1  # only Bob disagrees with Alice
        (plan,) = report.plan  # one rule runs: no T0, no T1
        steps = plan.removeprefix("Q_result: ").split(" -> ")
        assert len(steps) == 6 and all(step.endswith(" rows)") for step in steps)
        # Alice's world first; the negative subgoal is probed only for the
        # keys found there (tables this small are scanned, not indexed).
        assert steps[0] == "E[wid1, uid] index(wid1, uid) (1 rows)"
        assert steps[3].startswith("v_Sightings[key] scan (")
        assert steps[5].startswith("E[wid1, wid2] scan (")
        assert "Result size: 1" in report.render()
        assert "temporar" not in report.render().lower()

    def test_empty_query_explained(self, example_store):
        report = explain(
            example_store,
            q(example_store, "q(k) :- [3, 3] Sightings+(k, z, sp, u, v)"),
            analyze=True,
        )
        assert report.empty_reason is not None
        assert "provably empty" in report.render()

    def test_pushdown_changes_program(self, example_store):
        query = q(
            example_store,
            "q(k) :- ['Bob'] Sightings+(k, z, 'raven', u, v)",
        )
        pushed = explain(example_store, query, analyze=True)
        unpushed = explain(
            example_store, query, analyze=True, push_selections=False
        )
        assert pushed.result_size == unpushed.result_size == 1
        # The pushed listing runs unfolded, as one rule; the unpushed one is
        # the ablation and runs as listed: T0 whole, the selection last.
        assert len(pushed.rewritten_rules) == 1
        assert "Unfolded (what the engine evaluates):" in pushed.render()
        assert unpushed.rewritten_rules == unpushed.datalog_rules
        assert "Unfolded" not in unpushed.render()
        t0, final = unpushed.plan
        assert t0.startswith("T0: ") and final.startswith("Q_result: T0[] scan (")

    def test_the_listing_is_the_papers_and_the_plan_is_of_what_runs(
        self, example_store
    ):
        query = q(
            example_store,
            "q(x) :- [x] Sightings-(k, z, sp, u, v), [1] Sightings+(k, z, sp, u, v)",
        )
        report = explain(example_store, query)
        assert [rule.split("(")[0] for rule in report.datalog_rules] == [
            "T0", "T1", "Q_result",
        ]
        (rule,) = report.rewritten_rules
        assert rule.startswith("Q_result(q_x) :- E(0, q_x, s0_z0), v_Sightings(")
        assert "T0" not in rule and "T1" not in rule
        # Prop. 7 comes through whole: stated negative, or unstated.
        assert "(s0_sign = '-')" in rule and "(s0_sign = '+')" in rule
        assert report.plan == [
            "Q_result: E[wid1, uid] index(wid1, uid) -> "
            "v_Sightings[wid, s] index(wid)+residual(s) -> "
            "star_Sightings[tid, sid] key+residual(sid) -> "
            "v_Sightings[key] scan -> star_Sightings[tid, sid] key+residual(sid) -> "
            "E[wid1, wid2] scan"
        ]
        text = report.render()
        assert "Plan (join order, bound columns, access path):" in text
        assert f"  {report.plan[0]}" in text

    def test_subgoals_sharing_no_variable_are_joined_last(self, example_store):
        """Each connected component is a rule of its own, evaluated once;
        without ANALYZE its table is planned as empty."""
        query = q(
            example_store,
            "q(k, x) :- [1] Sightings+(k, z, sp, u, v), "
            "[x] Sightings+(k2, z2, 'crow', u2, v2)",
        )
        report = explain(example_store, query)
        heads = [rule.split("(")[0] for rule in report.rewritten_rules]
        assert heads == ["Q_result.0", "Q_result.1", "Q_result"]
        assert report.plan[2] == "Q_result: Q_result.0[] scan -> Q_result.1[] scan"
        analyzed = explain(example_store, query, analyze=True)
        expected = evaluate_naive(
            example_store.explicit_db, query, users=example_store.users()
        )
        assert expected and analyzed.result_size == len(expected)
        parts = [line.split(" -> ")[-1] for line in analyzed.plan[:2]]
        # The last rule reads each component once: a cross product.
        assert analyzed.plan[2].split("scan ")[1:] == [
            f"({_rows(parts[0])} rows) -> Q_result.1[] ",
            f"({_rows(parts[0]) * _rows(parts[1])} rows)",
        ]
