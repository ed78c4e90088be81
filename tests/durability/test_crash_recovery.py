"""The acceptance test: SIGKILL a serving process mid-workload, restart
from ``--data-dir``, and prove zero acknowledged writes were lost.

Driver shape:

1. spawn ``python -m repro serve --data-dir D`` as a subprocess;
2. run ``concurrent_trace`` streams against it from several client threads,
   recording every *acknowledged* write (the server responded) per client;
3. ``SIGKILL`` the process mid-workload — no warning, no flush;
4. restart the server on the same data dir; every acknowledged accepted
   write must be entailed in the recovered database;
5. kill the restarted server too, recover the directory *in-process*, and
   check the two independent recoveries agree world-by-world — the
   recovered state equals the serial replay of the log the acknowledged
   ops went into (plus, possibly, ops that were applied+logged but whose
   acknowledgement never reached a client).
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import experiment_schema
from repro.durability import DurabilityManager
from repro.server import BeliefClient
from repro.workload.generator import concurrent_trace
from tests.wire_sql import tuple_write

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

N_USERS = 4
OPS_PER_USER = 400
KILL_AFTER_ACKS = 80
INSERT = "insert into Sightings values (?,?,?,?,?)"


def _spawn_server(
    data_dir: Path, extra: tuple[str, ...] = ()
) -> tuple[subprocess.Popen, tuple[str, int]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro", "serve",
            "--port", "0", "--schema", "experiment",
            "--data-dir", str(data_dir),
            "--checkpoint-interval", "0.3",
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    address = None
    assert proc.stdout is not None
    for line in proc.stdout:
        match = re.search(r"listening on ([\d.]+):(\d+)", line)
        if match:
            address = (match.group(1), int(match.group(2)))
            break
    if address is None:
        proc.kill()
        proc.wait(timeout=10)
        raise AssertionError("server subprocess never reported its address")
    # Keep draining stdout so the subprocess never blocks on a full pipe.
    threading.Thread(target=proc.stdout.read, daemon=True).start()
    return proc, address


def _kill(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=10)


def _worker(
    address: tuple[str, int],
    name: str,
    ops,
    acked: list,
    lock: threading.Lock,
) -> None:
    """Apply one user's stream; record acknowledged writes only."""
    try:
        with BeliefClient(*address) as client:
            client.login(name, create=True)
            for op in ops:
                if op.kind == "select":
                    client.drain(client.execute_prepared(op.sql))
                    continue
                sign = "+" if op.kind == "insert" else "-"
                ok = client.execute_prepared(*tuple_write(
                    "insert", op.relation, op.values, sign=sign
                ))["rowcount"]
                # Only now — after the server's response arrived — is this
                # write acknowledged.
                with lock:
                    acked.append((name, op.relation, tuple(op.values),
                                  sign, bool(ok)))
    except Exception:  # noqa: BLE001 — the SIGKILL severs every connection
        return


@pytest.mark.slow
def test_sigkill_mid_workload_loses_no_acknowledged_write(tmp_path):
    data_dir = tmp_path / "data"
    proc, address = _spawn_server(data_dir)
    acked: list = []
    ack_lock = threading.Lock()
    try:
        streams = concurrent_trace(N_USERS, OPS_PER_USER, seed=17)
        threads = [
            threading.Thread(
                target=_worker, args=(address, name, ops, acked, ack_lock)
            )
            for name, ops in streams.items()
        ]
        for t in threads:
            t.start()
        deadline = time.time() + 60
        while time.time() < deadline:
            with ack_lock:
                if len(acked) >= KILL_AFTER_ACKS:
                    break
            time.sleep(0.005)
        with ack_lock:
            reached = len(acked)
        assert reached >= KILL_AFTER_ACKS, (
            f"workload too slow: only {reached} acknowledged writes"
        )
        _kill(proc)  # SIGKILL mid-workload: no flush, no goodbye
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads), "workers hung"
    finally:
        _kill(proc)

    accepted = [entry for entry in acked if entry[4]]
    assert accepted, "no accepted writes before the kill"

    # ---- restart from the data dir; zero lost acknowledged writes --------
    proc2, address2 = _spawn_server(data_dir)
    try:
        with BeliefClient(*address2) as client:
            stats = client.stats()
            assert stats["durability"]["last_seq"] > 0
            for name, relation, values, sign, _ in accepted:
                assert client.believes(
                    relation, list(values), path=[name], sign=sign
                ), (
                    f"acknowledged write lost after crash recovery: "
                    f"{name} {sign} {values}"
                )
            remote_worlds = {
                tuple(w["path"]): client.world(w["path"])
                for w in client.worlds()
            }
    finally:
        _kill(proc2)

    # ---- independent in-process recovery agrees world-by-world -----------
    db = BeliefDBMS(
        experiment_schema(), strict=False,
        durability=DurabilityManager(str(data_dir)),
    )
    try:
        assert db.annotation_count() == stats["annotations"]
        assert db.size() == stats["total_rows"]
        assert len(db.users()) == stats["users"]
        assert set(remote_worlds) == set(db.store.states())
        for path, remote in remote_worlds.items():
            local = db.store.entailed_world(path)
            assert remote["positives"] == sorted(
                str(t) for t in local.positives
            ), f"positives diverge at {path!r}"
            assert remote["negatives"] == sorted(
                str(t) for t in local.negatives
            ), f"negatives diverge at {path!r}"
        for name, relation, values, sign, _ in accepted:
            assert db.believes([name], relation, values, sign)
        # Deep consistency: the recovered representation is exactly the
        # closure of the recovered explicit statements (serial replay).
        db.store.check_invariants()
    finally:
        db.close()


def test_restart_after_clean_shutdown_replays_nothing(tmp_path):
    """Ctrl-C shutdown checkpoints, so the next start's WAL tail is empty."""
    data_dir = tmp_path / "data"
    proc, address = _spawn_server(data_dir)
    try:
        with BeliefClient(*address) as client:
            client.login("Carol", create=True)
            for i in range(5):
                assert client.execute_prepared(
                    INSERT, [f"s{i}", "Carol", "crow", "6-14-08", "loc"]
                )["rowcount"] == 1
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=15)
    finally:
        _kill(proc)

    db = BeliefDBMS(
        experiment_schema(), strict=False,
        durability=DurabilityManager(str(data_dir)),
    )
    try:
        report = db.durability.last_recovery
        assert report.snapshot_seq > 0
        assert report.wal_records == 0
        assert db.annotation_count() == 5
    finally:
        db.close()


def _batch_worker(
    address: tuple[str, int],
    name: str,
    acked_batches: list,
    lock: threading.Lock,
) -> None:
    """Stream execute_batch chunks; record each acknowledged batch."""
    try:
        with BeliefClient(*address) as client:
            client.login(name, create=True)
            for batch_no in range(200):
                rows = [
                    [f"{name}-b{batch_no}-r{i}", name, "crow", "d", "loc"]
                    for i in range(8)
                ]
                payload = client.execute_batch(
                    "insert into Sightings values (?,?,?,?,?)", rows
                )
                # Only now — the server responded — is this batch acked.
                with lock:
                    acked_batches.append(
                        (name, [tuple(row) for row in rows],
                         payload["rowcount"])
                    )
    except Exception:  # noqa: BLE001 — the SIGKILL severs every connection
        return


TXN_ROWS = 6


def _txn_worker(
    address: tuple[str, int],
    name: str,
    acked_txns: list,
    lock: threading.Lock,
) -> None:
    """Stream multi-statement transactions; record each acknowledged commit."""
    from repro.api import connect

    try:
        with connect(address, user=name, reconnect=False) as conn:
            for txn_no in range(400):
                rows = [
                    (f"{name}-x{txn_no}-r{i}", name, "crow", "d", "loc")
                    for i in range(TXN_ROWS)
                ]
                with conn.transaction():
                    for row in rows:
                        conn.execute(
                            "insert into Sightings values (?,?,?,?,?)", row
                        )
                # Only now — the commit response arrived — is this
                # transaction acknowledged.
                with lock:
                    acked_txns.append((name, rows))
    except Exception:  # noqa: BLE001 — the SIGKILL severs every connection
        return


@pytest.mark.slow
def test_sigkill_mid_transaction_loses_no_commit_and_no_partial(tmp_path):
    """The transactional acceptance test: SIGKILL the async server while
    clients stream multi-statement transactions. After recovery, every
    acknowledged transaction is fully present AND every transaction —
    acknowledged or not — is all-or-nothing: zero partially-applied
    transactions survive, because an un-synced commit group is discarded
    whole at the WAL tail."""
    data_dir = tmp_path / "data"
    proc, address = _spawn_server(data_dir, extra=("--async",))
    acked: list = []
    ack_lock = threading.Lock()
    try:
        threads = [
            threading.Thread(
                target=_txn_worker,
                args=(address, f"cur{i + 1}", acked, ack_lock),
            )
            for i in range(3)
        ]
        for t in threads:
            t.start()
        deadline = time.time() + 60
        while time.time() < deadline:
            with ack_lock:
                if len(acked) >= 15:  # ~90 acked rows mid-flight
                    break
            time.sleep(0.005)
        with ack_lock:
            reached = len(acked)
        assert reached >= 15, f"workload too slow: {reached} acked txns"
        _kill(proc)  # SIGKILL mid-commit stream: no flush, no goodbye
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads), "workers hung"
    finally:
        _kill(proc)

    assert acked, "no acknowledged transactions before the kill"

    db = BeliefDBMS(
        experiment_schema(), strict=False,
        durability=DurabilityManager(str(data_dir)),
    )
    try:
        # 1. Zero lost acknowledged transactions.
        for name, rows in acked:
            for values in rows:
                assert db.believes([name], "Sightings", values), (
                    f"row of an acknowledged transaction lost after "
                    f"recovery: {name} {values}"
                )
        # 2. Zero partial transactions, acknowledged or not: group every
        # recovered row by its transaction tag and demand all-or-nothing.
        recovered: dict[tuple[str, str], int] = {}
        for name in ("cur1", "cur2", "cur3"):
            if name not in db.users().values():
                continue
            world = db.world([name])
            for t in world.positives:
                if t.relation != "Sightings":
                    continue
                sid = t.values[0]  # "curN-x<txn>-r<i>"
                txn_tag = sid.rsplit("-r", 1)[0]
                recovered[(name, txn_tag)] = \
                    recovered.get((name, txn_tag), 0) + 1
        assert recovered, "recovery found no transactional rows"
        partial = {
            key: count for key, count in recovered.items()
            if count != TXN_ROWS
        }
        assert not partial, (
            f"partially-applied transactions after recovery: {partial}"
        )
        db.store.check_invariants()
    finally:
        db.close()


@pytest.mark.slow
def test_sigkill_mid_batched_workload_loses_no_acknowledged_batch(tmp_path):
    """The batched-WAL acceptance test: SIGKILL the pipelined async server
    while clients stream execute_batch writes (each batch = one WAL batch
    append + one fsync), restart, and prove every acknowledged batch is
    fully present. A torn batch at the WAL tail may lose only rows whose
    batch was never acknowledged."""
    data_dir = tmp_path / "data"
    proc, address = _spawn_server(data_dir, extra=("--async",))
    acked: list = []
    ack_lock = threading.Lock()
    try:
        threads = [
            threading.Thread(
                target=_batch_worker,
                args=(address, f"user{i + 1}", acked, ack_lock),
            )
            for i in range(3)
        ]
        for t in threads:
            t.start()
        deadline = time.time() + 60
        while time.time() < deadline:
            with ack_lock:
                if len(acked) >= 12:  # ~96 acked rows mid-flight
                    break
            time.sleep(0.005)
        with ack_lock:
            reached = len(acked)
        assert reached >= 12, f"workload too slow: {reached} acked batches"
        _kill(proc)
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads), "workers hung"
    finally:
        _kill(proc)

    assert acked, "no acknowledged batches before the kill"

    db = BeliefDBMS(
        experiment_schema(), strict=False,
        durability=DurabilityManager(str(data_dir)),
    )
    try:
        for name, rows, rowcount in acked:
            assert rowcount == len(rows)
            for values in rows:
                assert db.believes([name], "Sightings", values), (
                    f"row of an acknowledged batch lost after recovery: "
                    f"{name} {values}"
                )
        db.store.check_invariants()
    finally:
        db.close()
