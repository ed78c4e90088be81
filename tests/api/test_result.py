"""The typed Result: conveniences, wire round-trip."""

from __future__ import annotations

import pytest

from repro.api.result import Result


def select_result(rows, columns=("sid", "species")):
    return Result(
        kind="select", rows=rows, columns=columns,
        rowcount=len(rows), status=f"SELECT {len(rows)}", elapsed_ms=1.5,
    )


class TestConveniences:
    def test_scalar(self):
        assert select_result([("s1", "crow")]).scalar() == "s1"
        assert select_result([]).scalar() is None
        assert select_result([]).scalar("fallback") == "fallback"

    def test_ok_semantics(self):
        assert select_result([]).ok  # a select always "worked"
        accepted = Result("insert", [], (), 1, "INSERT 1")
        rejected = Result("insert", [], (), 0, "INSERT 0")
        assert accepted.ok and not rejected.ok
        assert Result("delete", [], (), 2, "DELETE 2").ok
        assert not Result("update", [], (), 0, "UPDATE 0").ok

    def test_iteration_len_indexing(self):
        result = select_result([("s1", "crow"), ("s2", "wren")])
        assert list(result) == [("s1", "crow"), ("s2", "wren")]
        assert len(result) == 2
        assert result[1] == ("s2", "wren")
        assert result.fetchone() == ("s1", "crow")


class TestWire:
    def test_round_trip(self):
        result = select_result([("s1", "crow")])
        again = Result.from_wire(result.to_wire())
        assert again == result

    def test_rows_override_for_paging(self):
        result = select_result([("s1", "crow"), ("s2", "wren")])
        payload = result.to_wire()
        payload["rows"] = payload["rows"][:1]  # server sent only page 1
        full = Result.from_wire(payload, [["s1", "crow"], ["s2", "wren"]])
        assert full.rows == result.rows

    def test_bad_kind_rejected(self):
        payload = select_result([]).to_wire()
        payload["kind"] = "truncate"
        with pytest.raises(ValueError):
            Result.from_wire(payload)

    def test_elapsed_excluded_from_equality(self):
        a = select_result([("s1", "crow")])
        b = select_result([("s1", "crow")])
        b.elapsed_ms = 99.0
        assert a == b
