#!/usr/bin/env python3
"""Concurrent curation: many users annotate one belief database at once.

Spins up the multi-user belief server in-process, then lets six
NatureMapping volunteers loose on it from six threads, each with its own
client connection and logged-in session:

* everyone reports sightings (implicitly annotated as *their* belief —
  sessions pin the default belief path to the user's own world);
* everyone disputes a sample of the readings the others reported;
* meanwhile a reader thread keeps asking the server for live stats.

The server is durable: every accepted write is appended to the WAL in
writer-lock order. At the end a fresh database is recovered from that WAL
— the same serial replay that runs after a crash — and checked against the
concurrent result: the writer lock makes the history linearizable, and
this demo proves it.

Run:  python examples/concurrent_curation.py
"""

import pathlib
import sys
import tempfile
import threading

try:
    import repro  # noqa: F401
except ModuleNotFoundError:  # running from a checkout without PYTHONPATH
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro import sightings_schema
from repro.bdms.bdms import BeliefDBMS
from repro.durability import DurabilityManager
from repro.server import BeliefClient, BeliefServer

USERS = ("Alice", "Bob", "Carol", "Dave", "Erin", "Frank")
SPECIES = ("bald eagle", "fish eagle", "crow", "raven", "osprey", "barred owl")
REPORTS_PER_USER = 8


def curate(address, name: str, index: int, barrier: threading.Barrier) -> None:
    """One volunteer's session: report own sightings, dispute others'."""
    with BeliefClient(*address) as client:
        client.login(name, create=True)
        barrier.wait(timeout=10)
        report = client.prepare("insert into Sightings values (?,?,?,?,?)")
        for k in range(REPORTS_PER_USER):
            sid = f"s{(index + k) % (len(USERS) * 2)}"
            client.execute_prepared(
                report,
                [sid, name, SPECIES[(index + k) % len(SPECIES)],
                 "6-14-08", "Lake Forest"],
            )
        # Dispute a couple of readings other users may believe: a negative
        # belief in my own world ("not" with no BELIEF prefix).
        dispute = client.prepare("insert into not Sightings values (?,?,?,?,?)")
        for k in range(3):
            sid = f"s{(index + k + 1) % (len(USERS) * 2)}"
            other = SPECIES[(index + k + 1) % len(SPECIES)]
            client.execute_prepared(
                dispute, [sid, USERS[(index + 1) % len(USERS)],
                          other, "6-14-08", "Lake Forest"],
            )


def watch(address, stop: threading.Event) -> None:
    """A read-only client polling live stats while the writers hammer away."""
    with BeliefClient(*address) as client:
        while not stop.is_set():
            stats = client.stats()
            print(
                f"  [watcher] users={stats['users']} "
                f"annotations={stats['annotations']} "
                f"worlds={stats['worlds']} |R*|={stats['total_rows']}"
            )
            stop.wait(0.05)


def main() -> None:
    with tempfile.TemporaryDirectory() as data_dir:
        serve_and_check(data_dir)
    print("\ndone — server stopped cleanly.")


def serve_and_check(data_dir: str) -> None:
    db = BeliefDBMS(sightings_schema(), strict=False,
                    durability=DurabilityManager(data_dir))
    with BeliefServer(db) as server:
        host, port = server.address
        print(f"== durable belief server on {host}:{port}, "
              f"{len(USERS)} concurrent curators ==")

        barrier = threading.Barrier(len(USERS), timeout=10)
        stop = threading.Event()
        watcher = threading.Thread(target=watch, args=(server.address, stop))
        workers = [
            threading.Thread(target=curate,
                             args=(server.address, name, i, barrier))
            for i, name in enumerate(USERS)
        ]
        watcher.start()
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        stop.set()
        watcher.join()

        print("\n== final belief worlds ==")
        with BeliefClient(host, port) as client:
            for world in client.worlds():
                print(f"  {world['label']}: {world['positives']}+ / "
                      f"{world['negatives']}-")
            stats = client.stats()

        print("\n== server counters ==")
        for key, value in stats["server"].items():
            print(f"  {key}: {value}")

    print("\n== linearizability check ==")
    db.close()  # release the data directory; the in-memory state stays
    recovered = BeliefDBMS(sightings_schema(), strict=False,
                           durability=DurabilityManager(data_dir))
    try:  # recovery raises if any logged write fails to re-apply
        concurrent_state = sorted(str(s) for s in db.store.explicit_statements())
        serial_state = sorted(
            str(s) for s in recovered.store.explicit_statements()
        )
        assert concurrent_state == serial_state, "states diverged!"
        assert recovered.users() == db.users(), "users diverged!"
        for path in db.store.states():
            assert (recovered.store.entailed_world(path)
                    == db.store.entailed_world(path)), "worlds diverged!"
        report = recovered.durability.last_recovery
        print(f"  recovered {report.wal_records} WAL records serially: "
              f"{len(serial_state)} explicit statements match exactly ✓")
    finally:
        recovered.close()


if __name__ == "__main__":
    main()
