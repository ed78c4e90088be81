"""Serialization cost: binary-v1 vs JSON, on the shapes the server serves.

Two experiments, one table:

* **Microbench** — every payload shape in ``SHAPES`` (the live request and
  response payloads of the hot wire ops, captured from real dispatch) is
  encoded and decoded through both codecs via
  :class:`repro.obs.wireprof.WireProfiler`, which doubles as the emitter
  of the ``beliefdb_wire_encode_seconds`` / ``beliefdb_wire_decode_seconds``
  histograms. Codecs are **interleaved within one run** (alternating order
  every round): this box has shown 35% run-to-run swings, so only
  within-run ratios are trustworthy.

* **End-to-end** — the 16-client blocking cell from the server-throughput
  matrix, once with every client pinned to ``wire="json"`` and once
  negotiated binary, same trace, same server core.

The small-op aggregate deliberately excludes row-matrix responses and
``execute_batch`` frames: those take the whole-frame JSON escape *by
design* (`docs/wire-protocol.md`), so their cost is JSON parity, not a
binary win. The acceptance bar (asserted at real scale only — CI smoke
rounds are fixed cost and scheduler noise) is the ISSUE 9 contract:
**≥40% reduction in encode+decode time per small op, or ≥1.3x on the
16-client blocking cell**.

Scale knobs: ``BELIEFDB_BENCH_WIRE_ROUNDS`` (microbench rounds per shape,
default 300), ``BELIEFDB_BENCH_SERVER_OPS`` (ops/client for the e2e cell,
default 60).
"""

from __future__ import annotations

import gc
import os
import threading
import time

import pytest

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import experiment_schema
from repro.errors import BeliefDBError
from repro.obs.wireprof import WireProfiler, decode_bytes
from repro.server import BeliefClient, BeliefServer
from repro.server.binproto import BinaryCodec, JSON_CODEC
from repro.workload.generator import ConcurrentOp, concurrent_trace

E2E_CLIENTS = 16


def apply_op(client: BeliefClient, op: ConcurrentOp) -> None:
    """One trace op over the blocking client (as in test_server_throughput)."""
    if op.kind == "insert":
        client.insert(op.relation, list(op.values))
    elif op.kind == "dispute":
        client.dispute(op.relation, list(op.values))
    elif op.kind == "select":
        client.drain(client.execute_prepared(op.sql))
    else:
        raise BeliefDBError(f"unknown op kind {op.kind!r}")

_SESSION = {
    "peer": "127.0.0.1:52114", "user": 3, "user_name": "Carol",
    "default_path": ["Carol"], "statements": 1, "cursors": 0,
    "transaction": False,
}
_STATUS = {
    "kind": "insert", "columns": [], "rows": [], "rowcount": 1,
    "status": "INSERT 1", "elapsed_ms": 0.41, "cursor": None,
    "has_more": False,
}
_ROW = ["s0017", "Carol", "bald eagle", "6-14-08", "Lake Forest"]
_SELECT = (
    "select S.sid, S.species from BELIEF 'Carol' Sightings as S "
    "where S.species = 'bald eagle'"
)


def _rows_result(n: int) -> dict:
    return dict(
        _STATUS, kind="select", columns=["sid", "species"],
        rows=[[f"s{i:04d}", "bald eagle"] for i in range(n)],
        rowcount=n, status=f"SELECT {n}",
    )


#: name -> (payload, in_smallop_aggregate). Shapes captured from live
#: dispatch (see docs/wire-protocol.md); ids are arbitrary but realistic.
SHAPES: dict[str, tuple[dict, bool]] = {
    "req.ping": ({"id": 7, "op": "ping", "params": {}}, True),
    "req.login": (
        {"id": 2, "op": "login", "params": {"user": "Carol", "create": True}},
        True,
    ),
    "req.insert": (
        {"id": 9, "op": "insert", "params": {
            "relation": "Sightings", "values": _ROW,
            "path": None, "sign": "+",
        }},
        True,
    ),
    "req.execute_sql": (
        {"id": 11, "op": "execute_prepared", "params": {
            "sql": _SELECT, "params": [],
        }},
        True,
    ),
    "req.execute_prepared": (
        {"id": 12, "op": "execute_prepared", "params": {
            "stmt": 1, "params": _ROW, "max_rows": 256,
        }},
        True,
    ),
    "req.batch16": (
        {"id": 13, "op": "execute_batch", "params": {
            "stmt": 1, "param_rows": [_ROW] * 16,
        }},
        False,  # rides the whole-frame JSON escape by design
    ),
    "resp.true": ({"id": 9, "ok": True, "result": True}, True),
    "resp.pong": ({"id": 7, "ok": True, "result": "pong"}, True),
    "resp.session": ({"id": 2, "ok": True, "result": _SESSION}, True),
    "resp.status": ({"id": 12, "ok": True, "result": _STATUS}, True),
    "resp.rows3": (
        {"id": 11, "ok": True, "result": _rows_result(3)}, False,
    ),
    "resp.rows100": (
        {"id": 11, "ok": True, "result": _rows_result(100)}, False,
    ),
    "resp.error": (
        {"id": 4, "ok": False, "error": {
            "type": "UnknownUserError", "message": "no such user 'Mallory'",
        }},
        True,
    ),
}

_MICRO: dict[str, dict[str, float]] = {}
_E2E: dict[str, float] = {}
_PROFILER = WireProfiler()


def _rounds() -> int:
    return int(os.environ.get("BELIEFDB_BENCH_WIRE_ROUNDS", "300"))


def _ops_per_client() -> int:
    return int(os.environ.get("BELIEFDB_BENCH_SERVER_OPS", "60"))


#: Tight-loop iterations per recorded sample. A per-call ``perf_counter``
#: pair costs about as much as encoding a small frame, so per-call timing
#: adds a constant to both codecs and dilutes the ratio being measured.
BATCH = 20


def test_codec_microbench():
    """Interleaved per-shape encode+decode timing through the profiler."""
    rounds = _rounds()
    codecs = {"json": JSON_CODEC, "binary": BinaryCodec()}
    for name, (payload, _) in SHAPES.items():
        # Correctness once per shape, outside the timed loops — and the
        # warmup (first JSON escape builds layout caches, first binary
        # encode sizes the reuse buffer) before a single sample lands.
        for codec in codecs.values():
            assert decode_bytes(codec, codec.encode(payload, None)) == payload
        gc.collect()
        gc.disable()  # as timeit does: GC pauses are not codec cost
        try:
            for r in range(rounds):
                order = (
                    ("json", "binary") if r % 2 == 0 else ("binary", "json")
                )
                for label in order:
                    codec = codecs[label]
                    start = time.perf_counter()
                    for _ in range(BATCH):
                        frame = codec.encode(payload, None)
                    mid = time.perf_counter()
                    for _ in range(BATCH):
                        codec.decode_payload(frame)
                    done = time.perf_counter()
                    _PROFILER.observe(
                        "encode", codec.name, name, (mid - start) / BATCH
                    )
                    _PROFILER.observe(
                        "decode", codec.name, name, (done - mid) / BATCH
                    )
        finally:
            gc.enable()
        row: dict[str, float] = {}
        for label, codec in codecs.items():
            enc = _PROFILER.best_seconds("encode", codec.name, name)
            dec = _PROFILER.best_seconds("decode", codec.name, name)
            row[f"{label}_us"] = 1e6 * (enc + dec)
        row["reduction_pct"] = 100.0 * (1 - row["binary_us"] / row["json_us"])
        _MICRO[name] = row
    # The histograms really did observe into the registry.
    rendered = _PROFILER.registry.render_text()
    assert "beliefdb_wire_encode_seconds" in rendered
    assert "beliefdb_wire_decode_seconds" in rendered


@pytest.mark.parametrize("wire", ("json", "binary"))
def test_e2e_blocking(wire):
    """The 16-client blocking cell, clients pinned to one codec."""
    ops_per_client = _ops_per_client()
    streams = concurrent_trace(E2E_CLIENTS, ops_per_client, seed=11)
    db = BeliefDBMS(experiment_schema(), strict=False)
    with BeliefServer(db) as server:
        barrier = threading.Barrier(E2E_CLIENTS + 1, timeout=30)
        errors: list = []

        def worker(name: str, ops) -> None:
            try:
                with BeliefClient(*server.address, wire=wire) as client:
                    client.login(name, create=True)
                    barrier.wait(timeout=30)
                    for op in ops:
                        apply_op(client, op)
            except Exception as exc:  # noqa: BLE001
                errors.append((name, exc))

        threads = [
            threading.Thread(target=worker, args=(name, ops))
            for name, ops in streams.items()
        ]
        for t in threads:
            t.start()
        barrier.wait(timeout=30)
        started = time.perf_counter()
        for t in threads:
            t.join(timeout=300)
        elapsed = time.perf_counter() - started
        assert not any(t.is_alive() for t in threads), "clients deadlocked"
        assert not errors, errors
    assert db.annotation_count() > 0
    _E2E[wire] = elapsed


def test_wire_report(emit, record_json):
    if not _MICRO or len(_E2E) < 2:
        pytest.skip("run the microbench and both e2e cells first")
    rounds = _rounds()
    ops_per_client = _ops_per_client()

    lines = [
        f"Wire codec cost (interleaved, {rounds} rounds/shape; "
        f"encode+decode µs per frame)",
        f"{'shape':>22} {'json µs':>9} {'binary µs':>10} {'reduction':>10}",
    ]
    small_json = small_binary = 0.0
    for name, row in _MICRO.items():
        in_aggregate = SHAPES[name][1]
        if in_aggregate:
            small_json += row["json_us"]
            small_binary += row["binary_us"]
        lines.append(
            f"{name:>22} {row['json_us']:>9.2f} {row['binary_us']:>10.2f} "
            f"{row['reduction_pct']:>9.1f}%"
            + ("" if in_aggregate else "   (excluded from aggregate)")
        )
    reduction = 100.0 * (1 - small_binary / small_json)
    speedup = _E2E["json"] / _E2E["binary"] if _E2E["binary"] else 1.0
    lines += [
        f"{'small-op aggregate':>22} {small_json:>9.2f} "
        f"{small_binary:>10.2f} {reduction:>9.1f}%",
        "",
        f"e2e blocking c{E2E_CLIENTS} ({ops_per_client} ops/client): "
        f"json {_E2E['json']:.3f}s, binary {_E2E['binary']:.3f}s "
        f"({speedup:.2f}x)",
    ]
    emit("\n".join(lines))

    payload: dict = {
        "rounds": rounds,
        "shapes": _MICRO,
        "smallop": {
            "json_us": small_json,
            "binary_us": small_binary,
            "reduction_pct": reduction,
        },
        "e2e": {
            "json": {f"c{E2E_CLIENTS}": {"seconds": _E2E["json"]}},
            "binary": {f"c{E2E_CLIENTS}": {"seconds": _E2E["binary"]}},
            "speedup": speedup,
        },
    }
    record_json("wire", payload)

    # The ISSUE 9 acceptance bar, at real scale only: binary cuts
    # encode+decode per small op by ≥40%, or wins the 16-client blocking
    # cell by ≥1.3x. (The e2e cell is round-trip dominated on localhost,
    # so the reduction arm is the one that normally carries this.)
    if rounds >= 200 and ops_per_client >= 40:
        assert reduction >= 40.0 or speedup >= 1.3, (
            f"binary wins neither arm: {reduction:.1f}% encode+decode "
            f"reduction (need ≥40%), {speedup:.2f}x e2e (need ≥1.3x)"
        )
