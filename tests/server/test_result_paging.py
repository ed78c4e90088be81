"""The one cursor pager: every page — the first included — is cut by row
count and by estimated wire bytes, on every endpoint.

Regression: a select whose first 512 rows outgrow the frame ceiling
(600 rows of 3 KB comments: a 1.5 MB first page against a 1 MiB ceiling)
used to fail with ``FrameTooLargeError`` on a plain server, threaded or
async, while the router — which kept a private byte-aware copy of the
cursor registry — paged it fine.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.server import (
    MAX_FRAME_BYTES,
    AsyncBeliefServer,
    BeliefClient,
    BeliefServer,
)
from repro.server import session as session_module
from repro.server.session import ClientSession, page_slice
from repro.shard import ShardCluster

N_ROWS = 600
COMMENT = "c" * 3000
SELECT = "select C.cid, C.comment from BELIEF 'Wide' Comments as C"


@contextlib.contextmanager
def _endpoint(kind: str):
    if kind == "router":
        with ShardCluster(n_shards=2) as cluster:
            yield cluster.address
    else:
        core = BeliefServer if kind == "threaded" else AsyncBeliefServer
        with core(BeliefDBMS(sightings_schema(), strict=False)) as server:
            yield server.address


@pytest.mark.parametrize("kind", ["threaded", "async", "router"])
def test_wide_results_page_under_the_frame_ceiling(kind):
    with _endpoint(kind) as address, BeliefClient(*address) as client:
        client.login("Wide", create=True)
        client.execute_batch(
            "insert into Comments values (?,?,?)",
            [[f"c{i:04d}", COMMENT, "s1"] for i in range(N_ROWS)],
        )
        first = client.execute_prepared(SELECT)
        assert first["rowcount"] == N_ROWS
        # 512 rows x 3 KB cannot travel in one frame: the first page was
        # cut by bytes and the rest parked behind a cursor.
        assert 0 < len(first["rows"]) < 512
        assert first["has_more"] is True
        rows = client.drain(first)
        assert [row[0] for row in rows] == [
            f"c{i:04d}" for i in range(N_ROWS)
        ]
        assert all(row[1] == COMMENT for row in rows)
        assert client.whoami()["cursors"] == 0  # drained cursors close

        # A cursor closed before its last page is gone too.
        first = client.execute_prepared(SELECT)
        assert first["has_more"] is True and first["cursor"] is not None
        assert client.close_cursor(first["cursor"]) is True
        assert client.whoami()["cursors"] == 0


def test_pages_respect_row_count_and_byte_budget():
    rows = [(f"k{i}", "x" * 100) for i in range(50)]
    page, end = page_slice(rows, 0, 10, 1 << 20)
    assert (len(page), end) == (10, 10)  # the row cap binds
    page, end = page_slice(rows, 10, 40, 1000)
    assert 1 < len(page) < 40 and end == 10 + len(page)  # the bytes bind
    # A row wider than the whole budget still travels, alone: no stall.
    page, end = page_slice([("k", "x" * 5000)] * 3, 1, 3, 1000)
    assert (len(page), end) == (1, 2)
    assert page_slice(rows, 50, 10, 1000) == ([], 50)


def test_one_row_result_pays_no_size_estimate(monkeypatch):
    def unexpected(row):
        raise AssertionError("a single row needs no size estimate")

    monkeypatch.setattr(session_module, "estimated_row_bytes", unexpected)
    session = ClientSession()
    budget = MAX_FRAME_BYTES // 3
    assert session.open_cursor([("s1", "crow")], 512, budget) == (
        [("s1", "crow")], None,
    )
    assert session.open_cursor([], 512, budget) == ([], None)
    # ... and neither does a max_rows=1 page of a longer result.
    page, cursor = session.open_cursor([("a",), ("b",)], 1, budget)
    assert page == [("a",)] and cursor is not None
    assert session.fetch_rows(cursor, 1, budget) == ([("b",)], False)
