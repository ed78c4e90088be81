"""Readers on a pinned fork while the writer grows the registries it shares.

A fork shares the live store's world, user and tuple registries: the live
store copies a world or user registry before changing it while a fork holds
it, and appends to the tuple registries in place (a fork ignores the tids at
or above its watermark). Readers that walk those registries — ``states()``,
``dependents_by_depth``, ``users()`` — and probe them — ``world_count``,
``tid_for``, ``entails`` — must never see a dict change size under them,
and must keep answering with the fork's frozen state.
"""

from __future__ import annotations

import sys
import threading

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.core.statements import NEGATIVE, POSITIVE

TAIL = ("Carol", "crow", "6-14-08", "Lake Forest")
JOIN_S = 30.0


def _answers(store, tuples) -> dict:
    """Everything the readers ask of a store, in one comparable value."""
    states = store.states()
    return {
        "states": states,
        "world_count": store.world_count(),
        "users": store.users(),
        "dependents": {
            path: store.dependents_by_depth(store.wid_for_path(path))
            for path in states
        },
        "tids": {t: store.tid_for(t) for t in tuples},
        "entails": {
            (path, t, sign): store.entails(path, t, sign)
            for path in states
            for t in tuples
            for sign in (POSITIVE, NEGATIVE)
        },
    }


def test_pinned_readers_keep_the_frozen_registries_while_the_writer_grows_them():
    db = BeliefDBMS(sightings_schema(), strict=False)
    carol, bob = db.add_user("Carol"), db.add_user("Bob")
    for k in range(6):
        db.insert(["Carol"], "Sightings", (f"k{k}", *TAIL))
        db.insert(["Bob", "Carol"], "Sightings", (f"b{k}", *TAIL))
    n_writes = 240
    tuples = [db.schema.tuple("Sightings", f"k{k}", *TAIL) for k in range(3)]
    tuples += [
        db.schema.tuple("Sightings", f"w{i}", *TAIL)
        for i in range(0, n_writes, 40)
    ]
    pinned = db.pin_version()
    expected = _answers(pinned.store, tuples)
    assert all(expected["tids"][t] is None for t in tuples[3:])
    failures: list[BaseException] = []
    done = threading.Event()
    reads = [0, 0, 0]

    def read_loop(slot: int) -> None:
        try:
            while not done.is_set():
                assert _answers(pinned.store, tuples) == expected
                if reads[slot] % 5 == slot:
                    # A fresh pin now and then: each one forces the next
                    # world- or user-creating write to copy.
                    with db.read_view() as version:
                        fresh = version.store
                        assert fresh.world_count() == len(fresh.states())
                        fresh.check_invariants()
                reads[slot] += 1
        except BaseException as exc:  # surface in the main thread
            failures.append(exc)
            done.set()

    def write_loop() -> None:
        try:
            users = [carol, bob]
            for i in range(n_writes):
                if failures:
                    return
                if i % 8 == 0:
                    users.append(db.add_user(f"u{i}"))
                path = [users[-1]]
                if i % 2 == 0 and users[i % len(users)] != users[-1]:
                    path.append(users[i % len(users)])
                db.insert(path, "Sightings", (f"w{i}", *TAIL))
        except BaseException as exc:
            failures.append(exc)
        finally:
            done.set()

    threads = [
        threading.Thread(target=read_loop, args=(slot,)) for slot in range(3)
    ]
    writer = threading.Thread(target=write_loop)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads mid-walk as often as we can
    try:
        for thread in threads:
            thread.start()
        writer.start()
        for thread in [writer, *threads]:
            thread.join(JOIN_S)
            assert not thread.is_alive(), "a reader or the writer hung"
    finally:
        sys.setswitchinterval(interval)
    try:
        assert not failures, failures[0]
        assert min(reads) > 0
        assert _answers(pinned.store, tuples) == expected
        live = _answers(db.store, tuples)
        assert live["world_count"] > expected["world_count"]
        assert len(live["users"]) > len(expected["users"])
        assert all(live["tids"][t] is not None for t in tuples)
    finally:
        db.release_version(pinned)
    db.store.check_invariants()
