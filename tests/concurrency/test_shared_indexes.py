"""One index set, many readers: MVCC forks probing the writer's hash indexes
while it inserts into and deletes from the very buckets they read
(``repro.relational.table``, "Ownership" / "Visibility" / "Detach").
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.query.parser import parse_bcq

TAIL = ("Carol", "6-14-08", "Lake Forest")
SCAN = "select S.sid, S.species from BELIEF 'Carol' Sightings as S"
POINT = "select S.sid, S.species from BELIEF 'Carol' Sightings as S where S.sid = ?"
WORLD = "q(k, sp) :- ['Carol'] Sightings+(k, u, sp, d, l)"
JOIN_S = 20.0


def _row(key: int, species: str) -> tuple:
    return (f"k{key}", TAIL[0], species, *TAIL[1:])


@pytest.mark.parametrize("loop", ["Table.prober", "compiled rule"])
def test_pinned_readers_stay_exact_while_the_writer_churns_the_same_keys(loop):
    """Every answer equals the state of the epoch it was pinned at. The
    world scan walks Carol's whole ``v_Sightings(wid)`` bucket — a set the
    writer adds to and (deferred) removes from concurrently — and the point
    select reads the ``(wid, key)`` bucket whose key is rewritten. Most of a
    reader's time goes into walking that bucket again and again, through
    one of the two loops that do: the table's own, or the one a compiled
    rule runs inline (which must snapshot the bucket just the same)."""
    db = BeliefDBMS(sightings_schema(), strict=False)
    db.add_user("Carol")
    n_keys, reads_each, max_writes = 300, 60, 20000
    state = {f"k{k}": "crow" for k in range(n_keys)}
    for k in range(n_keys):
        db.insert(["Carol"], "Sightings", _row(k, "crow"))
    scan, point = db.prepare(SCAN), db.prepare(POINT)
    world = parse_bcq(WORLD, db.schema)
    wid = db.store.resolve_path((1,))
    #: epoch -> the rows visible at it; written before the epoch exists.
    states = {db.versions.epoch: frozenset(state.items())}
    failures: list[BaseException] = []
    done = threading.Event()
    reads = [0] * 4

    def read_loop(seed: int) -> None:
        try:
            turn = seed
            while not done.is_set():
                with db.read_view() as version:
                    expected = states[version.epoch]
                    rows = db.execute_prepared(scan, version=version).rows
                    assert frozenset(rows) == expected and len(rows) == len(expected)
                    key = f"k{turn % n_keys}"
                    hit = db.execute_prepared(point, [key], version=version).rows
                    assert hit == [r for r in expected if r[0] == key]
                    table = version.store.v_table("Sightings")
                    # (a whole query is dearer than a raw probe: fewer, so
                    # the writer's max_writes stays far away)
                    for _ in range(8 if loop == "compiled rule" else 20):
                        if loop == "compiled rule":
                            assert db.query(world, version=version) == expected
                            continue
                        keys = [r[2] for r in table.match_named(wid=wid)]
                        assert sorted(keys) == sorted(k for k, _ in expected)
                turn += 7
                reads[seed] += 1
        except BaseException as exc:  # surface in the main thread
            failures.append(exc)
            done.set()

    threads = [threading.Thread(target=read_loop, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for i in range(max_writes):
            if done.is_set() or min(reads) >= reads_each:
                break
            key = f"k{i % n_keys}"
            if key in state:  # delete the key, then bring it back changed
                old = state.pop(key)
                states[db.versions.epoch + 1] = frozenset(state.items())
                assert db.delete(["Carol"], "Sightings", _row(i % n_keys, old))
            else:
                state[key] = f"sp{i}"
                states[db.versions.epoch + 1] = frozenset(state.items())
                assert db.insert(["Carol"], "Sightings", _row(i % n_keys, f"sp{i}"))
            assert db.versions.epoch in states
    finally:
        done.set()
        for t in threads:
            t.join(JOIN_S)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures, failures[0]
    assert min(reads) >= reads_each, (reads, i)
    # Nothing was rebuilt for any of those epochs, and with every reader gone
    # the next epoch's first pin leaves no dead rowid behind.
    db.insert(["Carol"], "Sightings", _row(n_keys, "owl"))
    stats = db.snapshot_stats()["engine_indexes"]
    assert stats["builds_shared"] == stats["builds_private"] == 0
    assert stats["pending_removals"] == 0


def test_staged_rows_are_probed_by_their_transaction_only():
    db = BeliefDBMS(sightings_schema(), strict=False)
    db.add_user("Carol")
    for k in range(40):
        db.insert(["Carol"], "Sightings", _row(k, "crow"))
    live = db.store.v_table("Sightings")
    wid = db.store.resolve_path((1,))

    scan, point = db.prepare(SCAN), db.prepare(POINT)
    txn = db.begin_transaction()
    txn.stage(
        db.prepare("insert into BELIEF 'Carol' Sightings values (?,?,?,?,?)"),
        _row(99, "owl"),
    )
    txn.stage(db.prepare("delete from BELIEF 'Carol' Sightings where sid = 'k3'"))
    with db.read_view() as pinned:
        view = txn.read_version()
        assert ("k99", "owl") in db.execute_prepared(scan, version=view).rows
        for version, k99, k3 in (
            (view, [("k99", "owl")], []),
            (pinned, [], [("k3", "crow")]),
            (None, [], [("k3", "crow")]),
        ):
            assert db.execute_prepared(point, ["k99"], version=version).rows == k99
            assert db.execute_prepared(point, ["k3"], version=version).rows == k3

        # The same, one layer down: the view's table left the lineage when
        # the staged rows were replayed onto it, so its probes go through
        # indexes of its own and nobody else's buckets ever name its rows.
        staged = view.store.v_table("Sightings")
        assert staged.lineage is not live.lineage
        assert len(list(staged.match_named(wid=wid, key="k99"))) == 1
        assert list(staged.match_named(wid=wid, key="k3")) == []
        assert len(list(staged.match_named(wid=wid))) == 40
        for table in (live, pinned.store.v_table("Sightings")):
            assert table.lineage is live.lineage
            assert list(table.match_named(wid=wid, key="k99")) == []
            assert len(list(table.match_named(wid=wid, key="k3"))) == 1
            assert len(list(table.match_named(wid=wid))) == 40
    txn.discard()
    stats = db.snapshot_stats()["engine_indexes"]
    assert stats["builds_shared"] == 0 and stats["builds_private"] > 0
