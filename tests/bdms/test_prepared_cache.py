"""The BDMS prepared-statement LRU cache: counters, eviction, invalidation."""

from __future__ import annotations

import pytest

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.errors import ParameterBindingError


def cache_stats(db: BeliefDBMS) -> dict:
    return db.snapshot_stats()["statement_cache"]


@pytest.fixture
def db():
    database = BeliefDBMS(sightings_schema(), strict=False)
    database.add_user("Carol")
    database.add_user("Bob")
    return database


SELECT = "select S.sid from Sightings as S where S.sid = ?"


class TestHitMiss:
    def test_repeat_prepare_hits(self, db):
        first = db.prepare(SELECT)
        second = db.prepare(SELECT)
        assert first is second
        stats = cache_stats(db)
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["size"] == 1

    def test_execute_sql_uses_cache(self, db):
        for _ in range(5):
            db.execute_sql(SELECT, ("s1",))
        stats = cache_stats(db)
        assert stats["misses"] == 1
        assert stats["hits"] == 4

    def test_distinct_sql_distinct_entries(self, db):
        db.prepare(SELECT)
        db.prepare("select S.species from Sightings as S")
        assert cache_stats(db)["size"] == 2

    def test_prepare_parsed_keyed_on_ast(self, db):
        from repro.beliefsql.parser import parse_beliefsql

        stmt = parse_beliefsql(SELECT)
        first = db.prepare_parsed(stmt)
        second = db.prepare_parsed(parse_beliefsql(SELECT))
        assert first is second  # equal ASTs share one cache entry
        assert cache_stats(db)["hits"] == 1


class TestEviction:
    def test_eviction_at_capacity(self):
        db = BeliefDBMS(sightings_schema(), strict=False, stmt_cache_size=4)
        for i in range(6):
            db.prepare(f"select S.sid from Sightings as S where S.sid = 's{i}'")
        stats = cache_stats(db)
        assert stats["size"] == 4
        assert stats["evictions"] == 2
        assert stats["capacity"] == 4

    def test_lru_order_keeps_hot_entries(self):
        db = BeliefDBMS(sightings_schema(), strict=False, stmt_cache_size=2)
        hot = "select S.sid from Sightings as S"
        db.prepare(hot)
        db.prepare("select S.species from Sightings as S")
        db.prepare(hot)  # refresh hot
        db.prepare("select S.date from Sightings as S")  # evicts the cold one
        before = cache_stats(db)["hits"]
        db.prepare(hot)
        assert cache_stats(db)["hits"] == before + 1  # hot survived

    def test_zero_capacity_disables_caching(self):
        db = BeliefDBMS(sightings_schema(), strict=False, stmt_cache_size=0)
        db.prepare(SELECT)
        db.prepare(SELECT)
        stats = cache_stats(db)
        assert stats["size"] == 0
        assert stats["misses"] == 2
        assert stats["hits"] == 0


class TestInvalidation:
    def test_add_user_invalidates(self, db):
        db.prepare(SELECT)
        assert cache_stats(db)["size"] == 1
        db.add_user("Dora")
        stats = cache_stats(db)
        assert stats["size"] == 0
        assert stats["invalidations"] >= 1

    def test_statement_cached_before_add_user_stays_correct(self, db):
        """The cache must never serve stale name→uid resolutions.

        Prepare a statement naming a user, register a *new* user, and verify
        both the old statement (re-prepared after invalidation) and a
        statement naming the new user resolve correctly.
        """
        sql = "insert into BELIEF ? Sightings values (?,?,?,?,?)"
        db.execute_sql(sql, ("Carol", "s1", "Carol", "crow", "d", "l"))
        db.add_user("Dora")
        # Same SQL text, new user in the parameters: must resolve Dora.
        result = db.execute_sql(sql, ("Dora", "s2", "Dora", "wren", "d", "l"))
        assert result.ok
        assert db.believes(["Dora"], "Sightings", ("s2", "Dora", "wren", "d", "l"))
        assert db.believes(["Carol"], "Sightings", ("s1", "Carol", "crow", "d", "l"))

    def test_invalidate_statements_returns_count(self, db):
        db.prepare(SELECT)
        db.prepare("select S.species from Sightings as S")
        assert db.invalidate_statements() == 2
        assert db.invalidate_statements() == 0


class TestExecutePrepared:
    def test_bind_many_param_vectors(self, db):
        prepared = db.prepare("insert into BELIEF ? Sightings values (?,?,?,?,?)")
        for i, who in enumerate(("Carol", "Bob")):
            result = db.execute_prepared(
                prepared, (who, f"s{i}", who, "crow", "d", "l")
            )
            assert result.ok
        rows = db.execute_sql(
            "select S.sid from BELIEF 'Carol' Sightings as S"
        ).rows
        assert ("s0",) in rows

    def test_wrong_param_count(self, db):
        prepared = db.prepare(SELECT)
        with pytest.raises(ParameterBindingError):
            db.execute_prepared(prepared, ())

    def test_select_result_shape(self, db):
        db.execute_sql("insert into Sightings values ('s1','Carol','crow','d','l')")
        typed = db.execute_sql("select S.sid, S.species from Sightings as S")
        assert typed.rows == [("s1", "crow")]
        assert typed.kind == "select"
        assert typed.columns == ("sid", "species")
        assert typed.rowcount == 1
        assert typed.status == "SELECT 1"
        assert typed.elapsed_ms >= 0
