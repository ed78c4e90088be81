"""``annotation_load``: bulk-insert generated annotations, embedded, one thread.

Repeats a pair of fresh-store loads until the time is up: the worst-overhead
Table 1 cell (``m``=100 users, uniform participation, depths [.33,.33,.33])
and, as a cheap contrast, (``m``=10, Zipf, [.8,.19,.01]). After each load a
sample of the accepted annotations is read back with ``believes``. The
``storage`` layer (``idWorld``, ``dss``, ``insertTuple``, default
propagation) does nearly all the work and ``query`` does none; the load
*writes* the same ``R*,U,V,E,D,S`` tables that ``table2_queries`` *reads*.
"""

from __future__ import annotations

import gc
from typing import Any

import gen
import stats
from calibrate import Calibrator
from harness import PassResult, digest, self_rss_mb

NAME = "annotation_load"
WHY = (
    "storage only: bulk inserts into the worst-overhead Table 1 cell (m=100 uniform) "
    "and a cheap m=10 Zipf contrast; writes the tables table2_queries reads"
)

#: (label, users, participation, depth distribution, accepted annotations)
CELLS = (
    ("m100_uniform", 100, "uniform", (1 / 3, 1 / 3, 1 / 3), 1000),
    ("m10_zipf", 10, "zipf", (0.8, 0.19, 0.01), 1000),
)
MAX_PAIRS = 10
STREAM_FACTOR = 1.1
READBACKS = 100
TICK_EVERY = 64  # operations between two calibration kernels


def _stream(cell: tuple, seed: int) -> list[tuple]:
    _, users, participation, depths, n = cell
    return gen.annotation_stream(
        int(n * STREAM_FACTOR), users, participation, depths, seed
    )


def make_inputs(seed: int) -> dict[str, Any]:
    pairs = [
        [_stream(cell, seed * 1000 + pair) for cell in CELLS]
        for pair in range(MAX_PAIRS)
    ]
    return {
        "pairs": pairs,
        "digest": digest(s for pair in pairs for stream in pair for s in stream),
    }


def _create_db(result: PassResult | None, users: int):
    from repro.bdms.bdms import BeliefDBMS
    from repro.core.schema import experiment_schema

    start = stats.now()
    db = BeliefDBMS(experiment_schema(), strict=False)
    for uid in range(1, users + 1):
        db.add_user(name=f"user{uid}", uid=uid)
    if result is not None:
        result.setup_s.append(stats.now() - start)
    return db


def _load_unit(
    result: PassResult, cell: tuple, stream: list[tuple], deep_check: bool,
    cpu: Calibrator,
):
    label, users, _, _, n = cell
    db = _create_db(result if cell is CELLS[0] else None, users)

    insert_s = result.sample(f"insert.{label}")
    accepted: list[tuple] = []
    rejected = 0
    load_start = stats.now()
    for index, (path, values, sign) in enumerate(stream):
        if index % TICK_EVERY == 0:
            cpu.tick()
        start = stats.now()
        ok = db.insert(path, "Sightings", values, sign)
        insert_s.append(stats.now() - start)
        if ok:
            accepted.append((path, values, sign))
            if len(accepted) == n:
                break
        else:
            rejected += 1
    # Read back an evenly spaced sample of what the store accepted.
    read_s = result.sample(f"readback.{label}")
    unreadable = 0
    for path, values, sign in accepted[:: max(1, n // READBACKS)][:READBACKS]:
        start = stats.now()
        believed = db.believes(path, "Sightings", values, sign)
        read_s.append(stats.now() - start)
        unreadable += not believed
    elapsed = stats.now() - load_start

    result.ops += len(accepted) + min(READBACKS, len(accepted))
    result.values["storage.rejected_inserts"] = (
        result.values.get("storage.rejected_inserts", 0) + rejected
    )
    ok = result.check(
        f"accepted[{label}]", len(accepted) == n and unreadable == 0,
        f"{len(accepted)}/{n} accepted, {unreadable} unreadable",
    )
    if not ok:
        result.failed += (n - len(accepted)) + unreadable
    if deep_check:
        try:
            db.store.check_invariants()
            result.check(f"invariants[{label}]", True)
        except Exception as exc:  # noqa: BLE001 — any violation is a failed check
            result.check(f"invariants[{label}]", False, repr(exc))
            result.failed += 1
    return db, elapsed


SETUP_PROBES = 5


def run_pass(
    inputs: dict[str, Any], seconds: float, recorder, workdir, setup_reps: int = 3,
) -> PassResult:
    result = PassResult()
    result.facts.update(client_threads=1, wal_sync="none (not durable)")
    # Set-up here is only creating a database and registering its users
    # (timed per load below); a few extra creations steady its median.
    setup_cpu, timed_cpu = Calibrator(), Calibrator()
    if setup_reps > 1:
        for _ in range(SETUP_PROBES):
            setup_cpu.tick()
            _create_db(result, CELLS[0][1])
    overheads: dict[str, list[float]] = {cell[0]: [] for cell in CELLS}
    last_db = None
    gc.collect()
    if recorder is not None:
        import spans

        spans.install_layer_spans(recorder)
    try:
        pairs_done = 0
        for pair in inputs["pairs"]:
            for cell, stream in zip(CELLS, pair):
                ticks = len(timed_cpu.samples)
                db, elapsed = _load_unit(
                    result, cell, stream, pairs_done == 0, timed_cpu
                )
                result.wall_s += elapsed - sum(timed_cpu.samples[ticks:])
                overheads[cell[0]].append(db.relative_overhead())
                if cell is CELLS[0]:
                    last_db = db
            pairs_done += 1
            if result.wall_s >= seconds:
                break
    finally:
        if recorder is not None:
            recorder.uninstall()

    assert last_db is not None
    result.attempted = result.ops + result.failed
    result.values["storage.relative_overhead"] = stats.mean(overheads["m100_uniform"])
    result.values["storage.overhead_m10_zipf"] = stats.mean(overheads["m10_zipf"])
    result.values["storage.worlds"] = last_db.store.world_count()
    for table, rows in last_db.store.row_counts().items():
        result.values[f"storage.rows.{table}"] = rows
    # The gated latencies are the worst-overhead cell's.
    result.lat["insert"] = result.lat["insert.m100_uniform"]
    result.lat["readback"] = result.lat["readback.m100_uniform"]
    result.rss_mb = self_rss_mb()
    result.setup_factor = (setup_cpu if setup_cpu.samples else timed_cpu).factor()
    result.timed_factor = timed_cpu.factor()
    return result
