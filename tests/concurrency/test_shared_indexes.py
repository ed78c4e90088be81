"""One index set, many readers: MVCC forks probing the writer's hash indexes
while it inserts into and deletes from the very buckets they read
(``repro.relational.table``, "Ownership" / "Visibility" / "Detach").
"""

from __future__ import annotations

import gc
import sys
import threading

import pytest

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.query.parser import parse_bcq
from repro.relational.datalog import Atom, Rule, Var, evaluate_rule
from repro.relational.schema import TableSchema
from repro.relational.table import Table

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
    world scan walks Carol's whole ``v_Sightings(wid)`` bucket — a list the
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


@pytest.mark.parametrize("loop", ["Table.prober", "compiled rule"])
def test_a_bucket_written_mid_probe_is_read_whole(loop):
    """A probe copies a bucket before it walks it, and nothing can run in
    the middle of the copy. The writer it races in the test above gets in
    wherever Python code runs on the reader's thread — for instance a
    finalizer the cyclic GC calls during an allocation. Here that finalizer
    *is* the writer, and the GC runs at every other allocation: with the
    bucket snapshotted by ``tuple(bucket)`` (which allocates its result
    after taking the set's iterator) nearly every probe below failed with
    "Set changed size during iteration"."""
    table = Table(TableSchema("t", ("k", "v"), indexes=(("k",),)))
    for v in range(50):
        table.insert((1, v))
    if loop == "compiled rule":
        rule = Rule(Atom("q", (Var("v"),)), [Atom("t", (1, Var("v")))])

        def probe() -> set:
            return {v for (v,) in evaluate_rule({"t": table}, rule)}
    else:
        prober = table.prober((0,))

        def probe() -> set:
            return {row[1] for row in prober((1,))}

    written = [50]

    class Writer:
        """Cyclic garbage whose finalizer adds a row to the probed bucket
        and leaves the next piece of such garbage behind."""

        def __init__(self) -> None:
            self.me = self

        def __del__(self) -> None:
            if written:
                table.insert((1, written[0]))
                written[0] += 1
                Writer()

    threshold = gc.get_threshold()
    Writer()
    gc.set_threshold(1, 10**9, 10**9)  # young collections only, all the time
    try:
        answers = []
        for i in range(30):
            [object() for _ in range(i % 3)]  # vary where the GC lands
            answers.append(probe())
    finally:
        written.clear()
        gc.set_threshold(*threshold)
        gc.collect()
    assert written == [] and len(table) > 80  # the writer did run throughout
    for answer in answers:  # each a whole bucket of some moment
        assert set(range(50)) <= answer <= {v for _, v in table}
        assert answer == set(range(max(answer) + 1))


@pytest.mark.parametrize("loop", ["Table.prober", "compiled rule"])
def test_an_inner_map_made_and_removed_mid_probe_is_read_whole(loop):
    """The race above, one level down. A two-column index maps its first
    value to an inner map, which the writer installs already holding its
    first row and removes once its last row is gone. The finalizer writer
    here keeps doing both to the probed first value: one row in the probed
    bucket and up to two beside it, inserted as one batch and deleted as
    one (a one-row purge or a grouped one), so the probes keep meeting the
    inner map coming and going. Every answer is still the bucket of one
    moment: empty, or the one row of a generation the writer inserted."""
    table = Table(TableSchema("t", ("k", "g", "v"), indexes=(("k", "g"),)))
    table.insert((2, 0, -1))  # a first value the writer leaves alone
    if loop == "compiled rule":
        rule = Rule(Atom("q", (Var("v"),)), [Atom("t", (1, 0, Var("v")))])

        def probe() -> set:
            return {v for (v,) in evaluate_rule({"t": table}, rule)}
    else:
        prober = table.prober((0, 1))

        def probe() -> set:
            return {row[2] for row in prober((1, 0))}

    generation = [0]
    live: list[int] = []
    inserted: set[int] = set()
    removals = [0]

    class Writer:
        """Cyclic garbage whose finalizer creates or removes the probed
        first value's inner map and leaves the next such garbage behind."""

        def __init__(self) -> None:
            self.me = self

        def __del__(self) -> None:
            if not generation:
                return
            if generation[0] % 5 == 4:  # a pause: probes land on both sides
                pass
            elif live:
                table.delete_rowids(live)
                live.clear()
                removals[0] += 1
            else:
                gen = generation[0]
                start = table.next_rowid
                table.insert_many([(1, g, gen) for g in range(gen % 3 + 1)])
                live.extend(range(start, table.next_rowid))
                inserted.add(gen)
            generation[0] += 1
            Writer()

    threshold = gc.get_threshold()
    Writer()
    gc.set_threshold(1, 10**9, 10**9)  # young collections only, all the time
    try:
        answers = []
        for i in range(60):
            [[] for _ in range(i % 4)]  # vary where the GC lands
            answers.append(probe())
    finally:
        generation.clear()
        gc.set_threshold(*threshold)
        gc.collect()
    assert len(inserted) > 20 and removals[0] > 20  # both, throughout
    for answer in answers:
        assert answer == set() or (len(answer) == 1 and answer <= inserted)
    assert any(answers) and not all(answers)
    (index,) = table.lineage.indexes.values()
    assert set(index) == ({1, 2} if live else {2})  # no empty inner map left
