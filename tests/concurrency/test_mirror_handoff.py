"""The carried sqlite mirror under concurrent readers and a writer.

One mirror moves from version to version (``docs/concurrency.md``, "The
sqlite backend"); a pinned version never gives its mirror up, so a reader
stuck mid-query keeps its frozen answer while newer epochs are served from
another mirror. The connection bound — live sqlite connections never
exceed live versions + 1 — is checked under the manager's own mutex, where
both numbers are stable.
"""

from __future__ import annotations

import sys
import threading

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from tests.relational.mirror_helpers import MirrorLedger, assert_mirror_is_exact

ROW_TAIL = ("Carol", "bald eagle", "6-14-08", "Lake Forest")
BCQ = "q(s) :- ['Carol'] Sightings+(s, u, sp, d, l)"
JOIN_S = 10.0


def _sqlite_db() -> BeliefDBMS:
    db = BeliefDBMS(sightings_schema(), backend="sqlite", strict=False)
    db.add_user("Carol")
    return db


def _sids(db: BeliefDBMS, version=None) -> set[str]:
    return {row[0] for row in db.query(BCQ, version=version)}


def _assert_connection_bound(db: BeliefDBMS, ledger: MirrorLedger) -> None:
    with db.versions._mutex:  # both counts move under this mutex only
        live = len(db.versions._versions)
        assert len(ledger.open) <= live + 1, (len(ledger.open), live)


def test_blocked_reader_keeps_its_epoch_while_a_newer_one_is_served(monkeypatch):
    ledger = MirrorLedger(monkeypatch)
    db = _sqlite_db()
    db.insert(["Carol"], "Sightings", ("s0", *ROW_TAIL))
    assert _sids(db) == {"s0"}  # version N owns the first mirror

    version_n = db.pin_version()
    answer_a: list[set[str]] = []
    reader_a = threading.Thread(
        target=lambda: answer_a.append(_sids(db, version=version_n))
    )
    # Reader A stalls mid-query: the mirror lock of its version is taken.
    version_n.mirror_lock.acquire()
    try:
        reader_a.start()
        reader_a.join(0.2)
        assert reader_a.is_alive() and not answer_a

        db.insert(["Carol"], "Sightings", ("s1", *ROW_TAIL))  # the writer commits
        _assert_connection_bound(db, ledger)

        # Reader B pins N+1. Version N is pinned and keeps its mirror, so B
        # gets a correct answer from a mirror of its own.
        answer_b: list[set[str]] = []
        reader_b = threading.Thread(target=lambda: answer_b.append(_sids(db)))
        reader_b.start()
        reader_b.join(JOIN_S)
        assert not reader_b.is_alive()
        assert answer_b == [{"s0", "s1"}]
        assert len(ledger.opened) == 2 and len(ledger.open) == 2
        assert reader_a.is_alive()  # B never waited for A
        _assert_connection_bound(db, ledger)
    finally:
        version_n.mirror_lock.release()
    reader_a.join(JOIN_S)
    assert not reader_a.is_alive()
    assert answer_a == [{"s0"}]  # the epoch-N state, two commits later or not
    db.release_version(version_n)
    _assert_connection_bound(db, ledger)

    # One more write + read: N is gone, N+1 retires and hands its mirror
    # on — exactly one mirror is left, and it is the carried one.
    db.insert(["Carol"], "Sightings", ("s2", *ROW_TAIL))
    assert db.versions.has_carried_mirror()
    assert ledger.open == {id(ledger.opened[1])}
    assert _sids(db) == {"s0", "s1", "s2"}
    assert len(ledger.opened) == 2
    assert_mirror_is_exact(db)


def test_no_connection_leak_over_200_write_read_rounds(monkeypatch):
    ledger = MirrorLedger(monkeypatch)
    db = _sqlite_db()
    for i in range(200):
        db.insert(["Carol"], "Sightings", (f"w{i}", *ROW_TAIL))
        assert len(_sids(db)) == i + 1
        _assert_connection_bound(db, ledger)
        if i % 50 == 7:  # a reader pinned across a write forces a second mirror
            with db.read_view() as pinned:
                db.insert(["Carol"], "Sightings", (f"p{i}", *ROW_TAIL))
                db.delete(["Carol"], "Sightings", (f"p{i}", *ROW_TAIL))
                assert len(_sids(db)) == i + 1
                assert len(_sids(db, version=pinned)) == i + 1
                _assert_connection_bound(db, ledger)
    # Every superseded connection was closed; the survivor is the current
    # version's.
    assert len(ledger.open) == 1
    assert len(ledger.opened) == 1 + 4
    stats = db.snapshot_stats()["mvcc"]
    assert stats["mirror_syncs_full"] == 1 + 4
    assert stats["mirror_syncs_full"] + stats["mirror_syncs_delta"] == 200 + 4
    assert_mirror_is_exact(db)


def test_handoff_stress_more_readers_than_cores(monkeypatch):
    """Four free-running sqlite readers against a writer committing pairs:
    no scan is torn, no answer comes from a mirror of another epoch, and
    the connection bound holds whenever it is sampled."""
    ledger = MirrorLedger(monkeypatch)
    db = _sqlite_db()
    prepared = db.prepare("insert into BELIEF 'Carol' Sightings values (?,?,?,?,?)")
    n_pairs, failures, done = 120, [], threading.Event()

    def read_loop() -> None:
        try:
            while not done.is_set():
                with db.read_view() as version:
                    sids = _sids(db, version=version)
                    expected = {
                        t.values[0]
                        for t in version.store.entailed_world((1,)).positives
                    }
                    assert sids == expected
                for i in range(n_pairs):
                    assert (f"a{i}" in sids) == (f"b{i}" in sids), f"torn pair {i}"
                _assert_connection_bound(db, ledger)
        except BaseException as exc:  # surface in the main thread
            failures.append(exc)
            done.set()

    threads = [threading.Thread(target=read_loop) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for t in threads:
            t.start()
        for i in range(n_pairs):
            if done.is_set():
                break
            db.execute_batch(prepared, [(f"a{i}", *ROW_TAIL), (f"b{i}", *ROW_TAIL)])
    finally:
        done.set()
        for t in threads:
            t.join(JOIN_S)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures, failures[0]
    assert len(_sids(db)) == 2 * n_pairs
    assert db.versions.live_versions() == 1
    # The current version's mirror, plus at most the one carried for the next.
    assert 1 <= len(ledger.open) <= 2
    assert_mirror_is_exact(db)
