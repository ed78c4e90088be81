"""The prepare / execute_prepared / fetch wire ops and result paging."""

from __future__ import annotations

import pytest

from repro.core.schema import sightings_schema
from repro.errors import BeliefDBError, ParameterBindingError
from repro.server import BeliefClient, BeliefServer
from repro.server.client import RemoteStatement
from tests.wal_oracle import durable_db, recovered_from_wal, wal_records

S1 = ["s1", "Carol", "bald eagle", "6-14-08", "Lake Forest"]


@pytest.fixture
def server(tmp_path):
    db = durable_db(sightings_schema(), tmp_path / "data")
    with BeliefServer(db) as srv:
        yield srv
    db.close()


@pytest.fixture
def client(server):
    with BeliefClient(*server.address) as c:
        yield c


# ------------------------------------------------------------------- prepare


def test_prepare_returns_metadata(client):
    stmt = client.prepare(
        "select S.sid, S.species from Sightings as S where S.sid = ?"
    )
    assert isinstance(stmt, RemoteStatement)
    assert stmt.kind == "select"
    assert stmt.param_count == 1
    assert stmt.columns == ("sid", "species")


def test_prepare_bad_sql_is_semantic_error(client):
    with pytest.raises(BeliefDBError):
        client.prepare("select garbage")
    assert client.ping()  # connection survives


def test_close_statement(client):
    stmt = client.prepare("select S.sid from Sightings as S")
    assert client.close_statement(stmt) is True
    assert client.close_statement(stmt) is False
    with pytest.raises(BeliefDBError):
        client.execute_prepared(stmt)


# ----------------------------------------------------------- execute_prepared


def test_execute_prepared_handle_many_bindings(client):
    client.add_user("Carol")
    insert = client.prepare("insert into Sightings values (?,?,?,?,?)")
    for i in range(4):
        payload = client.execute_prepared(
            insert, [f"s{i}", "Carol", "crow", "d", "l"]
        )
        assert payload["kind"] == "insert"
        assert payload["rowcount"] == 1
        assert payload["status"] == "INSERT 1"
    select = client.prepare("select S.sid from Sightings as S where S.sid = ?")
    hit = client.execute_prepared(select, ["s2"])
    assert hit["rows"] == [["s2"]]
    miss = client.execute_prepared(select, ["zz"])
    assert miss["rows"] == []


def test_execute_prepared_one_shot_sql(client):
    client.add_user("Carol")
    payload = client.execute_prepared(
        "insert into Sightings values (?,?,?,?,?)", S1
    )
    assert payload["rowcount"] == 1
    result = client.execute_prepared(
        "select S.sid, S.species from Sightings as S", []
    )
    assert result["columns"] == ["sid", "species"]
    assert result["rows"] == [["s1", "bald eagle"]]
    assert result["elapsed_ms"] >= 0


def test_wrong_param_count_travels_back(client):
    stmt = client.prepare("select S.sid from Sightings as S where S.sid = ?")
    with pytest.raises(ParameterBindingError):
        client.execute_prepared(stmt, [])
    assert client.ping()


def test_null_param_rejected_keeps_wal_replayable(client, server):
    """JSON null binds are refused so every logged write stays parseable:
    the rejected op leaves no WAL record and no state."""
    client.add_user("Carol")
    with pytest.raises(ParameterBindingError):
        client.execute_prepared(
            "insert into Sightings values (?,?,?,?,?)",
            ["s1", None, "crow", "d", "l"],
        )
    assert client.ping()
    assert [r["op"] for r in wal_records(server.db)] == ["add_user"]
    with recovered_from_wal(server.db) as recovered:
        assert recovered.annotation_count() == 0


def test_session_rewrite_applies_at_execute_time(client, server):
    """A handle prepared before login follows the session's *current* path."""
    client.add_user("Carol")
    insert = client.prepare("insert into Sightings values (?,?,?,?,?)")
    client.execute_prepared(insert, ["s0", "Carol", "crow", "d", "l"])
    client.login("Carol")
    client.execute_prepared(insert, ["s1", "Carol", "wren", "d", "l"])
    db = server.db
    # s0 went to plain content, s1 to Carol's belief world.
    plain = db.execute_sql("select S.sid from Sightings as S").rows
    assert plain == [("s0",)]
    assert db.believes(["Carol"], "Sightings",
                       ("s1", "Carol", "wren", "d", "l"))


# -------------------------------------------------------------------- paging


def test_large_select_pages_across_the_wire(client):
    client.add_user("Carol")
    insert = client.prepare("insert into Sightings values (?,?,?,?,?)")
    for i in range(10):
        client.execute_prepared(insert, [f"s{i}", "Carol", "crow", "d", "l"])
    payload = client.execute_prepared(
        "select S.sid from Sightings as S", [], max_rows=3
    )
    assert len(payload["rows"]) == 3
    assert payload["has_more"] is True
    assert payload["cursor"] is not None
    assert payload["rowcount"] == 10  # total known up front

    rows = list(payload["rows"])
    cursor_id = payload["cursor"]
    pages = 0
    has_more = True
    while has_more:
        page = client.fetch(cursor_id, n=4)
        rows.extend(page["rows"])
        has_more = page["has_more"]
        pages += 1
    assert pages == 2  # 3 + 4 + 3
    assert [r[0] for r in rows] == [f"s{i}" for i in range(10)]
    # The cursor auto-closed at exhaustion:
    with pytest.raises(BeliefDBError):
        client.fetch(cursor_id)


def test_small_select_has_no_cursor(client):
    client.add_user("Carol")
    client.execute_prepared("insert into Sightings values (?,?,?,?,?)", S1)
    payload = client.execute_prepared("select S.sid from Sightings as S", [])
    assert payload["has_more"] is False
    assert payload["cursor"] is None


def test_close_cursor(client):
    client.add_user("Carol")
    insert = client.prepare("insert into Sightings values (?,?,?,?,?)")
    for i in range(5):
        client.execute_prepared(insert, [f"s{i}", "Carol", "crow", "d", "l"])
    payload = client.execute_prepared(
        "select S.sid from Sightings as S", [], max_rows=2
    )
    assert client.close_cursor(payload["cursor"]) is True
    assert client.close_cursor(payload["cursor"]) is False


def test_fetch_unknown_cursor_is_semantic_error(client):
    with pytest.raises(BeliefDBError):
        client.fetch(9999)
    assert client.ping()


# ---------------------------------------------------------------------- WAL


def test_prepared_writes_logged_as_replayable_sql(client, server):
    client.add_user("Carol")
    client.login("Carol")
    insert = client.prepare("insert into Sightings values (?,?,?,?,?)")
    client.execute_prepared(insert, ["s1", "Carol", "O'Brien's crow", "d", "l"])
    client.execute_prepared(
        "update BELIEF ? Sightings set species = ? where sid = ?",
        ["Carol", "raven", "s1"],
    )
    # A statement is logged as template + params: the apostrophes travel
    # as data, the SQL keeps its placeholders.
    executes = [r for r in wal_records(server.db) if r["op"] == "execute"]
    assert len(executes) == 2
    assert "?" in executes[0]["sql"]
    assert "O'Brien's crow" in executes[0]["params"]
    with recovered_from_wal(server.db) as recovered:  # raises on divergence
        assert recovered.believes(
            ["Carol"], "Sightings", ("s1", "Carol", "raven", "d", "l")
        )


def test_whoami_reports_handles(client):
    client.prepare("select S.sid from Sightings as S")
    info = client.whoami()
    assert info["statements"] == 1
    assert info["cursors"] == 0
