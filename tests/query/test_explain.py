"""EXPLAIN reports for translated queries."""

from repro.query.explain import explain
from repro.query.parser import parse_bcq


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

    def test_analyze_reports_cardinalities(self, example_store):
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
        assert set(report.temp_cardinalities) == {"T0", "T1"}
        # The negative subgoal's temp ranges over every user's world.
        assert report.temp_cardinalities["T0"] >= report.result_size
        assert "Result size: 1" in report.render()

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
        # Without pushdown T0 materializes all of Bob's stated tuples.
        assert (
            unpushed.temp_cardinalities["T0"]
            >= pushed.temp_cardinalities["T0"]
        )

    def test_plan_lines_name_join_order_and_access_paths(self, example_store):
        query = q(
            example_store,
            "q(x) :- [x] Sightings-(k, z, sp, u, v), [1] Sightings+(k, z, sp, u, v)",
        )
        report = explain(example_store, query)
        t0, t1, final = report.plan  # one line per rule, in program order
        # T0 ranges over every user: E is bound on wid1 alone, which the
        # declared (wid1, uid) index does not cover — the 4-row E is scanned.
        assert t0 == (
            "T0: E[wid1] scan -> v_Sightings[wid] index(wid) -> "
            "star_Sightings[tid, sid] key+residual(sid)"
        )
        assert t1.startswith("T1: E[wid1, uid] index(wid1, uid) -> v_Sightings[wid, s]")
        # Without ANALYZE the temporaries do not exist; the final rule joins
        # them on the shared key column only, never on T1's own constants.
        assert final == "Q_result: T0[] temporary -> T1[c1] temporary"
        analyzed = explain(example_store, query, analyze=True)
        assert analyzed.plan[:2] == [t0, t1]
        assert analyzed.plan[2] == "Q_result: T0[] scan -> T1[c1] scan"
        assert "Plan (join order, bound columns, access path):" in analyzed.render()
        assert f"  {t0}" in analyzed.render()
