"""Mixed read/write latency: scanning readers racing sustained writers.

The MVCC acceptance cell (``docs/concurrency.md``): 16 writer clients
insert continuously into a **durable** server (``wal_sync="always"`` —
every committed write holds the write lock across an fsync, the paper's
community-curation deployment) while 4 reader clients run full-table
scans. Scans serve lock-free from pinned MVCC versions, so reader
latency is decoupled from the write queue: scan CPU hides under the
writers' fsync waits instead of queueing behind their exclusive lock
acquisitions. (The lock-based server this cell was once A/B'd against no
longer exists; earlier runs' "locked" rows are kept in
``benchmarks/results/experiment_tables.txt``.)

The closed cell runs a **fixed work quota** — every writer inserts
exactly ``writes`` rows and every reader runs exactly ``writes // 2``
scans — and the throughput metric is the cell **makespan** (barrier to
last thread done), so runs compare identical workloads end to end.

A second, **open-loop** cell offers scans at a calibrated fixed arrival
rate while background writers hammer closed-loop, measuring scan p50/p99
in the regime where queueing is visible at all (closed-loop readers
self-throttle).

``bench_results.json`` section ``mvcc`` feeds the CI regression gate
(``check_regression.py --only mvcc.``).

Scale knobs: ``BELIEFDB_BENCH_MIXED_OPS`` (writes per writer, default
40), ``BELIEFDB_BENCH_MIXED_OPENLOOP_OPS`` (open-loop scans, default
160).
"""

from __future__ import annotations

import os
import tempfile
import threading
import time

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


def _run_closed_cell() -> dict[str, float]:
    """16 durable writers + 4 scanning readers, fixed quotas each."""
    writes = _writes_per_writer()
    scans_per_reader = max(4, writes // 2)
    tmp = tempfile.TemporaryDirectory()
    db = _seeded_db(data_dir=os.path.join(tmp.name, "data"))
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
    mvcc = _run_closed_cell()
    openloop = _run_openloop_cell()
    record_json("mvcc", {
        "writes_per_writer": _writes_per_writer(),
        "closed": mvcc,
        "openloop": openloop,
    })
    emit("\n".join([
        f"mixed read/write ({N_WRITERS} durable writers x "
        f"{_writes_per_writer()} inserts, {N_READERS} scanning readers)",
        f"{'cell':<14} {'makespan s':>10} {'writes/s':>9} {'scans':>6} "
        f"{'scan p50 ms':>12} {'scan p99 ms':>12}",
        f"{'mvcc':<14} {mvcc['makespan_seconds']:>10.3f} "
        f"{mvcc['writes_per_s']:>9.0f} {mvcc['scans']:>6.0f} "
        f"{mvcc['reader_p50_ms']:>12.3f} {mvcc['reader_p99_ms']:>12.3f}",
        f"{'open-loop':<14} {'':>10} {openloop['target_rate']:>9.0f} "
        f"{openloop['completed']:>6} {openloop['p50_ms']:>12.3f} "
        f"{openloop['p99_ms']:>12.3f}",
    ]))
