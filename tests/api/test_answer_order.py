"""A select's rows come back sorted by their values, on every shape.

Numbers sort numerically (``2`` before ``10``; by ``repr`` ``10`` would
come first), and the order is the answer's own: embedded, threaded, async
and through the router return the same list. Where one column mixes
values that do not compare (``3`` and ``'x'``), the answer is sorted by
``repr`` instead, still a function of the answer alone.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.api import connect
from repro.bdms.bdms import BeliefDBMS
from repro.bdms.result import natural_order
from repro.core.schema import sightings_schema
from repro.server import AsyncBeliefServer, BeliefServer
from repro.shard import ShardCluster

INSERT = "insert into Sightings values (?,?,?,?,?)"
SELECT = "select S.sid, S.species from Sightings as S"
SIDS = [10, 2, 33, 1, 4, 100]


@contextlib.contextmanager
def _connection(shape, tmp_path):
    """A connection writing plain content (no user, empty default path)."""
    if shape == "embedded":
        with connect(BeliefDBMS(sightings_schema())) as conn:
            yield conn
        return
    with contextlib.ExitStack() as stack:
        if shape == "router":
            cluster = stack.enter_context(
                ShardCluster(n_shards=2, data_dir=str(tmp_path / "shards"))
            )
            address = cluster.address
        else:
            core = BeliefServer if shape == "threaded" else AsyncBeliefServer
            address = stack.enter_context(
                core(BeliefDBMS(sightings_schema()))
            ).address
        yield stack.enter_context(connect(f"{address[0]}:{address[1]}"))


@pytest.mark.parametrize("shape", ["embedded", "threaded", "async", "router"])
def test_an_int_column_comes_back_in_numeric_order(shape, tmp_path):
    with _connection(shape, tmp_path) as conn:
        for sid in SIDS:
            conn.execute(INSERT, [sid, "u", f"bird-{sid}", "d", "l"])
        rows = [tuple(row) for row in conn.execute(SELECT).rows]
    assert rows == [(sid, f"bird-{sid}") for sid in sorted(SIDS)]
    assert rows != sorted(rows, key=repr)  # the old order differs here


def test_a_column_of_values_that_do_not_compare_sorts_by_repr():
    db = BeliefDBMS(sightings_schema())
    with connect(db) as conn:
        for sid in (3, "x", 20, "a"):
            conn.execute(INSERT, [sid, "u", "kite", "d", "l"])
        rows = conn.execute("select S.sid from Sightings as S").rows
    assert rows == sorted([(3,), ("x",), (20,), ("a",)], key=repr)
    # The same answer in any arrival order sorts to the same list.
    assert natural_order(list(reversed(rows))) == rows
    assert natural_order(set(rows)) == rows
