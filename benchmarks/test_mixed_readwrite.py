"""Mixed read/write latency: scanning readers racing sustained writers.

The MVCC acceptance cell (``docs/concurrency.md``): 16 writer clients
insert continuously into a **durable** server (``wal_sync="always"`` —
every committed write holds the write lock across an fsync, the paper's
community-curation deployment) while 4 reader clients run full-table
scans, two ways —

* **mvcc** (the shipping discipline): scans serve lock-free from pinned
  versions, so reader latency is decoupled from the write queue;
* **locked** (this file empties ``repro.server.server._PINNED_READ_OPS``
  for the cell): scans take the readers-writer lock again — the pre-MVCC
  discipline — so every scan queues behind the writers' fsync-bound
  exclusive acquisitions. The server has no switch for it; the control
  lives here.

Durability is what makes the A/B meaningful: ephemeral in-memory writes
release the lock in microseconds, so lock queueing costs less than the
per-epoch copy-on-write fork and the disciplines tie. When writes are
slow, MVCC's decoupling is the whole game: scan CPU hides under the
writers' fsync waits instead of queueing behind them.

Both cells run a **fixed work quota** — every writer inserts exactly
``writes`` rows and every reader runs exactly ``writes // 2`` scans —
and the throughput metric is the cell **makespan** (barrier to last
thread done). Free-running time-bound readers would do strictly more
scans in the discipline that unblocks them, and a writer-window timing
would credit the locked discipline for pushing scan CPU outside the
window it measures; fixed quotas + makespan compare identical workloads
end to end.

A third, **open-loop** cell offers scans at a calibrated fixed arrival
rate while background writers hammer closed-loop, measuring scan p50/p99
in the regime where queueing is visible at all (closed-loop readers
self-throttle).

``bench_results.json`` section ``mvcc`` feeds the CI regression gate
(``check_regression.py --only mvcc.``). The A/B acceptance bar — reader
p99 improved under MVCC with writer throughput within 10% — is asserted
at real scale only; CI's smoke run (8 writes/writer) is fixed cost and
scheduler noise.

Scale knobs: ``BELIEFDB_BENCH_MIXED_OPS`` (writes per writer, default
40), ``BELIEFDB_BENCH_MIXED_OPENLOOP_OPS`` (open-loop scans, default
160).
"""

from __future__ import annotations

import os
import tempfile
import threading
import time

import repro.server.server as server_module
from repro.bdms.bdms import BeliefDBMS
from repro.bench.openloop import run_open_loop
from repro.core.schema import sightings_schema
from repro.durability import DurabilityManager
from repro.obs.clock import monotonic_s
from repro.server import BeliefClient, BeliefServer

N_WRITERS = 16
N_READERS = 4
SEED_ROWS = 100

SELECT = "select S.sid from BELIEF 'Carol' Sightings as S"
#: The open-loop cell's scan: same full-table scan server-side, but the
#: equality filter keeps the reply frame tiny while background writers
#: grow the table without bound (the unfiltered scan would eventually
#: exceed the 1 MiB frame ceiling there).
FILTERED_SCAN = (
    "select S.sid from BELIEF 'Carol' Sightings as S "
    "where S.sid = 'seed0'"
)
INSERT = "insert into Sightings values (?,?,?,?,?)"
ROW_TAIL = ["Carol", "bald eagle", "6-14-08", "Lake Forest"]

MAX_STEADY_RATE = 1500.0
MIN_RATE = 50.0


def _writes_per_writer() -> int:
    return int(os.environ.get("BELIEFDB_BENCH_MIXED_OPS", "40"))


def _openloop_ops() -> int:
    return int(os.environ.get("BELIEFDB_BENCH_MIXED_OPENLOOP_OPS", "160"))


def _seeded_db(data_dir: str | None = None) -> BeliefDBMS:
    durability = (
        DurabilityManager(data_dir, sync="always")
        if data_dir is not None else None
    )
    db = BeliefDBMS(sightings_schema(), strict=False, durability=durability)
    db.add_user("Carol")
    for i in range(SEED_ROWS):
        db.insert(["Carol"], "Sightings", (f"seed{i}", *ROW_TAIL))
    return db


def _percentile(sorted_ms: list[float], q: float) -> float:
    if not sorted_ms:
        return 0.0
    index = min(len(sorted_ms) - 1, int(q * (len(sorted_ms) - 1) + 0.5))
    return sorted_ms[index]


def _run_closed_cell(force_locked: bool) -> dict[str, float]:
    """16 durable writers + 4 scanning readers, fixed quotas each."""
    writes = _writes_per_writer()
    scans_per_reader = max(4, writes // 2)
    tmp = tempfile.TemporaryDirectory()
    db = _seeded_db(data_dir=os.path.join(tmp.name, "data"))
    pinned_read_ops = server_module._PINNED_READ_OPS
    if force_locked:
        # No op counts as a pinned read: dispatch puts every scan back on
        # the readers-writer lock.
        server_module._PINNED_READ_OPS = frozenset()
    try:
        with BeliefServer(db) as server:
            barrier = threading.Barrier(N_WRITERS + N_READERS + 1, timeout=30)
            errors: list = []
            scan_ms: list[list[float]] = [[] for _ in range(N_READERS)]

            def writer(w: int) -> None:
                try:
                    with BeliefClient(*server.address) as client:
                        client.login(f"w{w}", create=True)
                        barrier.wait(timeout=30)
                        for i in range(writes):
                            client.insert(
                                "Sightings", [f"w{w}-{i}", *ROW_TAIL],
                                path=["Carol"],
                            )
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            def reader(r: int) -> None:
                try:
                    with BeliefClient(*server.address) as client:
                        # warm: parse + first plan
                        client.drain(client.execute_prepared(SELECT))
                        barrier.wait(timeout=30)
                        for _ in range(scans_per_reader):
                            start = monotonic_s()
                            client.drain(client.execute_prepared(SELECT))
                            scan_ms[r].append(
                                (monotonic_s() - start) * 1000.0
                            )
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=writer, args=(w,))
                for w in range(N_WRITERS)
            ] + [
                threading.Thread(target=reader, args=(r,))
                for r in range(N_READERS)
            ]
            for t in threads:
                t.start()
            barrier.wait(timeout=30)
            started = time.perf_counter()
            for t in threads:
                t.join(timeout=300)
            makespan = time.perf_counter() - started
            assert not any(t.is_alive() for t in threads), "cell deadlocked"
            assert not errors, errors
    finally:
        server_module._PINNED_READ_OPS = pinned_read_ops
        db.close()
        tmp.cleanup()

    samples = sorted(ms for per in scan_ms for ms in per)
    total_writes = N_WRITERS * writes
    return {
        "writes": total_writes,
        "scans": len(samples),
        "makespan_seconds": makespan,
        "writes_per_s": total_writes / makespan if makespan
        else float("inf"),
        "reader_p50_ms": round(_percentile(samples, 0.50), 3),
        "reader_p99_ms": round(_percentile(samples, 0.99), 3),
    }


def _run_openloop_cell() -> dict:
    """Scans at a calibrated fixed arrival rate under background writes."""
    db = _seeded_db()
    with BeliefServer(db) as server:
        stop = threading.Event()
        write_errors: list = []

        def background_writer(w: int) -> None:
            try:
                with BeliefClient(*server.address) as client:
                    client.login(f"ow{w}", create=True)
                    i = 0
                    while not stop.is_set():
                        client.insert(
                            "Sightings", [f"ow{w}-{i}", *ROW_TAIL],
                            path=["Carol"],
                        )
                        i += 1
            except Exception as exc:  # noqa: BLE001
                write_errors.append(exc)

        writers = [
            threading.Thread(target=background_writer, args=(w,))
            for w in range(8)
        ]
        for t in writers:
            t.start()
        try:
            # Calibrate scan capacity UNDER write load — a quiet-server
            # number would schedule arrivals far beyond loaded capacity
            # and measure pure queueing collapse instead of service time.
            probe = BeliefClient(*server.address)
            try:
                probe.execute_prepared(FILTERED_SCAN)
                start = monotonic_s()
                for _ in range(30):
                    probe.execute_prepared(FILTERED_SCAN)
                capacity = 30 / max(monotonic_s() - start, 1e-9)
            finally:
                probe.close()
            rate = max(MIN_RATE, min(capacity * 0.5, MAX_STEADY_RATE))
            report = run_open_loop(
                lambda: BeliefClient(*server.address),
                lambda i: ("execute_prepared", {"sql": FILTERED_SCAN}),
                rate=rate, total_ops=_openloop_ops(), workers=N_READERS,
            )
        finally:
            stop.set()
            for t in writers:
                t.join(timeout=60)
        assert not write_errors, write_errors
        assert report.errors == 0
        assert report.completed == report.offered
    return report.as_dict() | {"calibrated_capacity": round(capacity, 1)}


def test_mixed_readwrite(record_json, emit):
    mvcc = _run_closed_cell(force_locked=False)
    locked = _run_closed_cell(force_locked=True)
    openloop = _run_openloop_cell()
    record_json("mvcc", {
        "writes_per_writer": _writes_per_writer(),
        "closed": mvcc,
        "closed_locked": locked,
        "openloop": openloop,
    })

    lines = [
        f"mixed read/write ({N_WRITERS} durable writers x "
        f"{_writes_per_writer()} inserts, {N_READERS} scanning readers)",
        f"{'cell':<14} {'makespan s':>10} {'writes/s':>9} {'scans':>6} "
        f"{'scan p50 ms':>12} {'scan p99 ms':>12}",
    ]
    for name, r in (("mvcc", mvcc), ("locked", locked)):
        lines.append(
            f"{name:<14} {r['makespan_seconds']:>10.3f} "
            f"{r['writes_per_s']:>9.0f} {r['scans']:>6.0f} "
            f"{r['reader_p50_ms']:>12.3f} {r['reader_p99_ms']:>12.3f}"
        )
    lines.append(
        f"{'open-loop':<14} {'':>10} {openloop['target_rate']:>9.0f} "
        f"{openloop['completed']:>6} {openloop['p50_ms']:>12.3f} "
        f"{openloop['p99_ms']:>12.3f}"
    )
    emit("\n".join(lines))

    # The acceptance bar, at real scale only: MVCC scans must not be
    # slower at the tail than lock-queued scans, and decoupling readers
    # must not cost the mixed workload more than 10% throughput (the
    # makespan covers the identical write+scan quota in both cells).
    # Smoke scale (CI) is all fixed cost — there the gate is
    # check_regression.py's absolute 3x bound on the recorded numbers.
    if _writes_per_writer() >= 40:
        assert mvcc["reader_p99_ms"] <= locked["reader_p99_ms"], (
            f"MVCC scan p99 {mvcc['reader_p99_ms']}ms worse than the "
            f"locked discipline's {locked['reader_p99_ms']}ms"
        )
        assert (
            mvcc["makespan_seconds"] <= 1.10 * locked["makespan_seconds"]
        ), (
            f"mixed-workload throughput regressed beyond 10%: MVCC "
            f"makespan {mvcc['makespan_seconds']:.3f}s vs locked "
            f"{locked['makespan_seconds']:.3f}s"
        )
