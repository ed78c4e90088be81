"""``served_openloop``: the asyncio server core under an open-loop arrival schedule.

``repro serve --async`` (same durability flags as ``served_closed``) with two
pipelined ``AsyncBeliefClient`` connections driven from one asyncio thread.
The ``served_closed`` op mix without transactions (they cannot be pipelined)
is offered at five fixed rates, one after the other on the same growing
store; latency is timed from the *scheduled* send time and the generator's
own lateness is reported.
"""

from __future__ import annotations

import asyncio
import random
from pathlib import Path
from typing import Any

import openloop
import stats
import wl_served_closed as closed
from harness import WAL_SYNC, PassResult, digest

NAME = "served_openloop"
WHY = (
    "capacity and queueing on the other (asyncio) core with pipelined clients: "
    "where freeing the write lock, fsync or event loop can pay more than its share"
)

#: Offered rates in requests/s: geometric, fixed. The seed commit's capacity
#: on the 2-core box is ~400/s, so they span 25%-160% of it.
RATES = (100.0, 160.0, 250.0, 400.0, 640.0)
#: Share of the run each rate is offered for. The middle rate (the latency
#: metrics) and the top rate (the capacity metric) get the most: their
#: numbers are gated, the other three only locate ``max_rate_ok``.
STEP_SHARES = (0.10, 0.10, 0.30, 0.15, 0.35)
MIDDLE = 2
LATENCY_LIMIT_S = 0.025
GENERATOR_LATE_LIMIT_S = 0.005  # p95 of send lateness at the middle rate
#: The mix, by quota: every block of 40 requests holds 20 writes, 19 point
#: selects and 1 scan in a seeded order, so each step sees the same number
#: of each whatever the seed (a scan blocks the event loop for ~10 ms; one
#: more or fewer in a step moves its median).
BLOCK = ("write",) * 20 + ("select",) * 19 + ("scan",)
MAX_OPS = 40000


def make_inputs(seed: int) -> dict[str, Any]:
    writes = iter(closed.write_stream(seed))
    rng = random.Random(seed ^ 0x09E7100)
    ops: list[tuple[str, list]] = []
    while len(ops) < MAX_OPS:
        block = list(BLOCK)
        rng.shuffle(block)
        for kind in block:
            if kind == "write":
                ops.append(next(writes))
            elif kind == "scan":
                ops.append(("scan", [closed.user_name(rng.randrange(closed.N_USERS))]))
            else:
                i = rng.randrange(closed.BASE_ROWS)
                ops.append(("select", [closed.user_name(i % closed.N_USERS), f"base{i}"]))
    return {"ops": ops, "digest": digest([ops[:8000], len(ops)])}


async def _load(port: int, ops: list, seconds: float,
                result: PassResult) -> list[openloop.StepResult]:
    from repro.server import AsyncBeliefClient

    clients = [
        await AsyncBeliefClient.connect("127.0.0.1", port, wire="auto")
        for _ in range(2)
    ]
    try:
        prepared = []
        for client in clients:
            prepared.append({
                "insert": await client.prepare(closed.INSERT_SQL),
                "dispute": await client.prepare(closed.DISPUTE_SQL),
                "select": await client.prepare(closed.SELECT_SQL),
                "scan": await client.prepare(closed.SCAN_SQL),
            })
        wrong = 0

        async def send(index: int) -> str:
            nonlocal wrong
            kind, params = ops[index]
            which = index % 2
            client = clients[which]
            payload = await client.call(
                "execute_prepared", stmt=prepared[which][kind].id, params=params
            )
            if kind == "select":
                wrong += payload["rowcount"] != 1
            elif kind == "scan":
                rows = len(payload["rows"])
                while payload.get("has_more") and payload.get("cursor") is not None:
                    cursor = payload["cursor"]
                    payload = await client.call("fetch", cursor=cursor)
                    payload["cursor"] = cursor
                    rows += len(payload["rows"])
                wrong += rows < closed.BASE_ROWS // closed.N_USERS
            return kind

        steps: list[openloop.StepResult] = []
        cursor = 0
        start = stats.now()
        for rate, share in zip(RATES, STEP_SHARES):
            step = await openloop.run_step(send, rate, seconds * share, cursor)
            cursor += step.offered
            steps.append(step)
        result.wall_s = stats.now() - start
        result.failed += wrong
        result.check("reads_correct", wrong == 0, f"{wrong} wrong reads")
        return steps
    finally:
        for client in clients:
            await client.close()


def run_pass(
    inputs: dict[str, Any], seconds: float, recorder, workdir: Path,
    setup_reps: int = closed.SETUP_REPS,
) -> PassResult:
    result = PassResult()
    traced = recorder is not None
    result.facts.update(client_threads=1, wal_sync=WAL_SYNC)
    spans_out = workdir / "server_spans.json" if traced else None
    reps = setup_reps
    session = closed.start_session(
        result, workdir, reps, use_async=True, traced=traced, spans_out=spans_out
    )
    result.facts["wire"] = session.wire
    try:
        before = session.writer.metrics()
        steps = asyncio.run(
            _load(session.server.port, inputs["ops"], seconds, result)
        )
        after = session.writer.metrics()
        stats_after = session.writer.stats()
        closed.layer_values(result, before, after, stats_after)
        result.rss_mb = session.server.peak_rss_mb()
        if traced:
            session.close_clients()
            session.server.stop()
            result.facts["server_spans"] = session.server.span_report()
    finally:
        session.close_clients()
        session.server.kill()

    result.ops = sum(step.completed for step in steps)
    errors = sum(step.errors for step in steps)
    result.failed += errors
    result.attempted = sum(step.offered for step in steps)
    middle, top = steps[MIDDLE], steps[-1]
    for kind in ("insert", "dispute"):
        result.sample("insert").extend(middle.latencies(kind))
    result.sample("select").extend(middle.latencies("select"))
    result.sample("scan").extend(middle.latencies("scan"))
    result.sample("openloop").extend(middle.latencies())
    result.sample("generator_late").extend(
        late for step in steps for late in step.late_s
    )
    result.values["openloop.top_achieved_rate"] = top.achieved_rate
    result.values["openloop.max_rate_ok"] = openloop.max_rate_ok(steps, LATENCY_LIMIT_S)
    # A generator that is the bottleneck is late on most sends. One stall of
    # the box (30 ms is 1% of the middle step) is not that and must not fail
    # the run, so the limit is on p95; p99 is server.generator_late_p99_ms.
    late_p95, late_p99 = (stats.percentile(middle.late_s, q) for q in (0.95, 0.99))
    if not result.check(
        "generator_on_time", late_p95 < GENERATOR_LATE_LIMIT_S,
        f"generator ran {late_p95 * 1e3:.2f} ms late (p95; p99 "
        f"{late_p99 * 1e3:.2f} ms) at the middle rate",
    ):
        result.failed += 1
    result.facts["steps"] = [
        {
            "rate": step.rate,
            "offered": step.offered,
            "completed": step.completed,
            "errors": step.errors,
            "error_types": step.error_types,
            "achieved_rate": step.achieved_rate,
            "p50_ms": stats.p50(step.latencies(), 1e3),
            "tail_ms": openloop.tail(step.latencies()) * 1e3,
            "early_late_tail_ms": [x * 1e3 for x in step.halves_tail()],
            "generator_late_p99_ms": stats.quantile_or_zero(step.late_s, 0.99, 1e3),
            "ok": openloop.rate_ok(step, LATENCY_LIMIT_S),
        }
        for step in steps
    ]
    return result
