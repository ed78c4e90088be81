"""``served_closed``: the threaded server core under two closed-loop connections.

The server is a subprocess (its own GIL): ``repro serve --data-dir … --wal-sync
always --checkpoint-interval 2 --wire auto``, so several background
checkpoints land inside the timed phase. Connection W sends prepared inserts
and disputes from ``concurrent_trace``; every 16th unit is an 8-statement
``begin…commit`` and every 64th an ``execute_batch`` of 16. Connection R,
concurrently, sends prepared point selects by key (80%) and full scans of one
user's growing world (20%, so that a half-length traced run still has the
100 scans a p90 needs). Epilogue: SIGKILL the server, recover the data
dir in a fresh process, time it, and check every acknowledged write.
"""

from __future__ import annotations

import random
import threading
from pathlib import Path
from typing import Any

import stats
from harness import (
    WAL_SYNC,
    PassResult,
    ServerChild,
    counter,
    digest,
    family,
    hist_delta_mean,
)

NAME = "served_closed"
WHY = (
    "one small durable request end to end: server codec/dispatch/lock, statement cache, "
    "MVCC forks, WAL append+fsync; reads race writes on one store over 2 connections"
)

N_USERS = 8
OPS_PER_USER = 5000
BASE_ROWS = 1024
TXN_EVERY, TXN_SIZE = 16, 8
BATCH_EVERY, BATCH_SIZE = 64, 16
READ_OPS = 60000
SCAN_SHARE = 0.20
SETUP_REPS = 3
DISPUTE_CHECKS = 200

INSERT_SQL = "insert into BELIEF ? Sightings values (?,?,?,?,?)"
DISPUTE_SQL = "insert into BELIEF ? not Sightings values (?,?,?,?,?)"
SELECT_SQL = (
    "select S.sid, S.species from BELIEF ? Sightings as S where S.sid = ?"
)
SCAN_SQL = "select S.sid, S.species from BELIEF ? Sightings as S"


def user_name(index: int) -> str:
    return f"user{index + 1}"


def base_row(i: int) -> list:
    from repro.workload.generator import LOCATIONS, SPECIES

    return [user_name(i % N_USERS), f"base{i}", user_name(i % N_USERS),
            SPECIES[i % len(SPECIES)], f"{1 + i % 12}-{1 + i % 28}-08",
            LOCATIONS[i % len(LOCATIONS)]]


def write_stream(seed: int) -> list[tuple[str, list]]:
    """``(kind, params)`` writes: the users' trace streams, interleaved."""
    from repro.workload.generator import concurrent_trace

    streams = concurrent_trace(
        N_USERS, OPS_PER_USER, seed=seed, select_fraction=0.0
    )
    names = [user_name(i) for i in range(N_USERS)]
    out: list[tuple[str, list]] = []
    for k in range(OPS_PER_USER):
        for name in names:
            op = streams[name][k]
            out.append((op.kind, [name, *op.values]))
    return out


def make_inputs(seed: int) -> dict[str, Any]:
    writes = write_stream(seed)
    # Cut the stream into units: singles, 8-statement transactions, and
    # 16-row batches (batches bind ONE statement, so they take inserts only,
    # from their own key space).
    rng = random.Random(seed ^ 0x5E12ED)
    units: list[tuple[str, Any]] = []
    cursor = 0
    batch_id = 0
    while cursor + TXN_SIZE <= len(writes):
        index = len(units) + 1
        if index % BATCH_EVERY == 0:
            rows = [
                [user_name(j % N_USERS), f"batch{batch_id}-{j}",
                 user_name(j % N_USERS), "osprey", "6-14-08", "Union Bay"]
                for j in range(BATCH_SIZE)
            ]
            batch_id += 1
            units.append(("batch", rows))
        elif index % TXN_EVERY == 0:
            units.append(("txn", writes[cursor:cursor + TXN_SIZE]))
            cursor += TXN_SIZE
        else:
            units.append(("one", writes[cursor]))
            cursor += 1
    reads = [
        ("scan", rng.randrange(N_USERS)) if rng.random() < SCAN_SHARE
        else ("select", rng.randrange(BASE_ROWS))
        for _ in range(READ_OPS)
    ]
    return {
        "units": units,
        "reads": reads,
        "digest": digest([units[:4000], reads[:4000], len(units)]),
    }


# ------------------------------------------------------------------ set-up


class Session:
    """One started, preloaded and warmed server plus its two connections."""

    def __init__(self, data_dir: Path, *, use_async: bool = False,
                 traced: bool = False, spans_out: Path | None = None) -> None:
        from repro.server import BeliefClient

        self.server = ServerChild(
            data_dir, use_async=use_async, traced=traced, spans_out=spans_out
        )
        self.writer = BeliefClient("127.0.0.1", self.server.port, wire="auto")
        self.reader = BeliefClient("127.0.0.1", self.server.port, wire="auto")
        for i in range(N_USERS):
            self.writer.login(user_name(i), create=True)
        self.w_insert = self.writer.prepare(INSERT_SQL)
        self.w_dispute = self.writer.prepare(DISPUTE_SQL)
        self.r_select = self.reader.prepare(SELECT_SQL)
        self.r_scan = self.reader.prepare(SCAN_SQL)
        rows = [base_row(i) for i in range(BASE_ROWS)]
        self.writer.execute_batch(self.w_insert, rows)
        # Warm: one of each read shape pins the first MVCC version.
        self.reader.execute_prepared(self.r_select, [user_name(0), "base0"])
        self.reader.drain(self.reader.execute_prepared(self.r_scan, [user_name(0)]))
        self.wire = getattr(self.writer._codec, "name", "?")

    def close_clients(self) -> None:
        for client in (self.writer, self.reader):
            try:
                client.close()
            except Exception:  # noqa: BLE001 — the server may already be gone
                pass


def start_session(result: PassResult, workdir: Path, reps: int, **kw: Any) -> Session:
    """Set up ``reps`` times (each on a fresh data dir); keep the last."""
    session = None
    for rep in range(reps):
        if session is not None:
            session.close_clients()
            session.server.kill()
        start = stats.now()
        session = Session(workdir / f"data{rep}", **kw)
        result.setup_s.append(stats.now() - start)
    assert session is not None
    return session


# -------------------------------------------------------------- timed phase


class Acked:
    """What the server acknowledged, for the recovery check."""

    def __init__(self) -> None:
        self.inserted: dict[str, set[str]] = {}
        self.disputes: list[list] = []

    def note(self, kind: str, params: list, rowcount: int) -> None:
        if kind == "insert":
            self.inserted.setdefault(params[0], set()).add(params[1])
        elif rowcount:
            self.disputes.append(params)


def run_writer(session: Session, units: list, deadline: float, result: PassResult,
               acked: Acked, frames: "FrameSample", recorder) -> int:
    client = session.writer
    statements = {"insert": session.w_insert, "dispute": session.w_dispute}
    insert_s = result.sample("insert")
    commit_s = result.sample("commit")
    batch_s = result.sample("batch")
    done = 0
    for kind, body in units:
        if stats.now() >= deadline:
            break
        if kind == "one":
            op, params = body
            start = stats.now()
            if recorder is None:
                payload = client.execute_prepared(statements[op], params)
            else:
                with recorder.span(f"client.{op}"):
                    payload = client.execute_prepared(statements[op], params)
            insert_s.append(stats.now() - start)
            acked.note(op, params, payload["rowcount"])
            frames.add(statements[op].id, params, payload)
            done += 1
        elif kind == "txn":
            client.begin()
            for op, params in body:
                client.execute_prepared(statements[op], params)
            start = stats.now()
            client.commit()
            commit_s.append(stats.now() - start)
            # A commit acknowledges the whole group or nothing; disputes in
            # a group are counted but not read back one by one.
            for op, params in body:
                if op == "insert":
                    acked.note(op, params, 0)
            done += len(body)
        else:
            start = stats.now()
            client.execute_batch(session.w_insert, body)
            batch_s.append(stats.now() - start)
            for params in body:
                acked.note("insert", params, 0)
            done += len(body)
    return done


def run_reader(session: Session, reads: list, deadline: float,
               result: PassResult, frames: "FrameSample", recorder) -> tuple[int, int]:
    client = session.reader
    select_s = result.sample("select")
    scan_s = result.sample("scan")
    done = wrong = 0
    for kind, arg in reads:
        if stats.now() >= deadline:
            break
        if kind == "select":
            params = [user_name(arg % N_USERS), f"base{arg}"]
            start = stats.now()
            if recorder is None:
                payload = client.execute_prepared(session.r_select, params)
            else:
                with recorder.span("client.select"):
                    payload = client.execute_prepared(session.r_select, params)
            select_s.append(stats.now() - start)
            frames.add(session.r_select.id, params, payload)
            wrong += payload["rows"] != [[f"base{arg}", base_row(arg)[3]]]
        else:
            start = stats.now()
            rows = client.drain(
                client.execute_prepared(session.r_scan, [user_name(arg)])
            )
            scan_s.append(stats.now() - start)
            wrong += len(rows) < BASE_ROWS // N_USERS
        done += 1
    return done, wrong


def timed_phase(session: Session, inputs: dict, seconds: float,
                result: PassResult, acked: Acked, recorder) -> list:
    # One sample per thread: the two connections never share a list.
    w_frames, r_frames = FrameSample(), FrameSample()
    outcome: dict[str, Any] = {}
    errors: list[BaseException] = []
    barrier = threading.Barrier(2)

    def guarded(name: str, fn) -> None:
        try:
            barrier.wait(timeout=30)
            outcome[f"{name}_start"] = stats.now()
            outcome[name] = fn(outcome[f"{name}_start"] + seconds)
        except BaseException as exc:  # noqa: BLE001 — reported by the caller
            errors.append(exc)
        finally:
            outcome[f"{name}_end"] = stats.now()

    def writer(deadline: float) -> int:
        return run_writer(session, inputs["units"], deadline, result, acked,
                          w_frames, recorder)

    def reader(deadline: float) -> tuple[int, int]:
        return run_reader(session, inputs["reads"], deadline, result,
                          r_frames, recorder)

    threads = [
        threading.Thread(target=guarded, args=("w", writer)),
        threading.Thread(target=guarded, args=("r", reader)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120)
    if errors:
        raise errors[0]
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a load thread did not finish")
    start = min(outcome["w_start"], outcome["r_start"])
    written = outcome["w"]
    read, wrong = outcome["r"]
    result.wall_s = max(outcome["w_end"], outcome["r_end"]) - start
    result.ops = written + read
    result.failed += wrong
    result.check("reads_correct", wrong == 0, f"{wrong} wrong of {read} reads")
    return w_frames.frames + r_frames.frames


# ------------------------------------------------------------ layer numbers


def layer_values(result: PassResult, before: dict, after: dict,
                 stats_after: dict) -> None:
    """Deltas of the server's own counters across the timed phase."""
    v = result.values
    for mode in ("write", "read"):
        _, wait = hist_delta_mean(before, after, "beliefdb_lock_wait_seconds", mode=mode)
        _, hold = hist_delta_mean(before, after, "beliefdb_lock_hold_seconds", mode=mode)
        v[f"server.lock_wait_{mode}_us"] = wait * 1e6
        v[f"server.lock_hold_{mode}_us"] = hold * 1e6
    for op in ("execute_prepared", "commit", "execute_batch", "fetch", "ping"):
        _, mean = hist_delta_mean(before, after, "beliefdb_op_seconds", op=op)
        v[f"server.op_mean_us.{op}"] = mean * 1e6
    for kind in ("insert", "select", "commit"):
        _, mean = hist_delta_mean(before, after, "beliefdb_statement_seconds", kind=kind)
        v[f"bdms.statement_mean_us.{kind}"] = mean * 1e6
    appends, append_mean = hist_delta_mean(before, after, "beliefdb_wal_append_seconds")
    fsyncs, fsync_mean = hist_delta_mean(before, after, "beliefdb_wal_fsync_seconds")
    c0 = sum(s["sum"] for s in family(before, "beliefdb_wal_batch_records"))
    c1 = sum(s["sum"] for s in family(after, "beliefdb_wal_batch_records"))
    v["durability.append_us"] = append_mean * 1e6
    v["durability.fsync_us"] = fsync_mean * 1e6
    v["durability.fsyncs"] = fsyncs
    v["durability.records_per_fsync"] = (c1 - c0) / fsyncs if fsyncs else 0.0
    v["server.sheds"] = (
        counter(after, "beliefdb_overload_sheds_total")
        - counter(before, "beliefdb_overload_sheds_total")
    )
    v["storage.snapshot_builds"] = (
        counter(after, "beliefdb_mvcc_snapshot_builds_total")
        - counter(before, "beliefdb_mvcc_snapshot_builds_total")
    )
    v["storage.pins"] = (
        counter(after, "beliefdb_mvcc_pins_total")
        - counter(before, "beliefdb_mvcc_pins_total")
    )
    _, fork_mean = hist_delta_mean(before, after, "beliefdb_mvcc_snapshot_build_seconds")
    v["storage.fork_us"] = fork_mean * 1e6
    cache = stats_after["statement_cache"]
    v["bdms.stmt_cache_hit_rate"] = cache["hit_rate"]
    v["storage.live_versions_max"] = stats_after["mvcc"]["live_versions"]
    v["storage.relative_overhead"] = stats_after["relative_overhead"]
    durability = stats_after["durability"] or {}
    v["durability.checkpoints"] = durability.get("checkpoints", 0)
    wal_records = durability.get("wal_records_written", 0)
    v["durability.wal_bytes_per_write"] = (
        durability.get("wal_bytes", 0) / wal_records if wal_records else 0.0
    )
    v["lifecycle.audit_events"] = stats_after["lifecycle"]["audit_events"]
    txns = stats_after["transactions"]
    v["bdms.commit_rows"] = (
        txns["rows_committed"] / txns["committed"] if txns["committed"] else 0.0
    )


def codec_costs(result: PassResult, frames: list[tuple[str, dict]]) -> None:
    """Each codec's encode/decode time on frames this workload sent."""
    from repro.server.binproto import JSON_CODEC, BinaryCodec

    for label, codec in (("json", JSON_CODEC), ("binary", BinaryCodec())):
        encode_s: list[float] = []
        decode_s: list[float] = []
        sizes: dict[str, list[int]] = {"request": [], "response": []}
        for _ in range(5):
            for direction, frame in frames:
                start = stats.now()
                wire = codec.encode(frame)
                mid = stats.now()
                codec.decode_payload(wire)
                end = stats.now()
                encode_s.append(mid - start)
                decode_s.append(end - mid)
                sizes[direction].append(len(wire))
        result.values[f"server.encode_{label}_us"] = stats.p50(encode_s, 1e6)
        result.values[f"server.decode_{label}_us"] = stats.p50(decode_s, 1e6)
        if label == "binary":  # the codec ``--wire auto`` negotiates
            result.values["server.request_bytes"] = stats.mean(sizes["request"])
            result.values["server.response_bytes"] = stats.mean(sizes["response"])


class FrameSample:
    """The first small requests and replies of each connection, as sent."""

    LIMIT = 100

    def __init__(self) -> None:
        self.frames: list[tuple[str, dict]] = []
        self._seen: dict[int, int] = {}

    def add(self, stmt_id: int, params: list, payload: dict) -> None:
        from repro.server.protocol import Request, Response

        n = self._seen.get(stmt_id, 0)
        if n >= self.LIMIT:
            return
        self._seen[stmt_id] = n + 1
        self.frames.append(("request", Request(
            id=n + 1, op="execute_prepared",
            params={"params": params, "stmt": stmt_id},
        ).to_wire()))
        self.frames.append(("response", Response(
            id=n + 1, ok=True, result=payload).to_wire()))


# ----------------------------------------------------------------- epilogue


def kill_and_recover(session: Session, data_dir: Path, result: PassResult,
                     acked: Acked, annotations_before: int) -> None:
    from repro.server import BeliefClient

    session.close_clients()
    session.server.kill()
    start = stats.now()
    recovered = ServerChild(data_dir)
    client = BeliefClient("127.0.0.1", recovered.port, wire="auto")
    try:
        client.ping()
        result.values["recovery_s"] = stats.now() - start
        server_stats = client.stats()
        report = (server_stats["durability"] or {}).get("last_recovery", {})
        replayed = report.get("wal_records", 0)
        elapsed_ms = report.get("elapsed_ms", 0.0)
        result.values["durability.recovered_records"] = replayed
        result.values["durability.replay_records_per_s"] = (
            replayed / (elapsed_ms / 1e3) if elapsed_ms else 0.0
        )
        # Every acknowledged write is there; at most one unacknowledged op.
        extra = server_stats["annotations"] - annotations_before
        result.check(
            "recovered_annotation_count", 0 <= extra <= 1,
            f"{server_stats['annotations']} recovered vs {annotations_before} "
            "acknowledged",
        )
        scan = client.prepare(SCAN_SQL)
        missing = 0
        for i in range(N_USERS):
            name = user_name(i)
            rows = client.drain(client.execute_prepared(scan, [name]))
            present = {row[0] for row in rows}
            expected = acked.inserted.get(name, set()) | {
                f"base{j}" for j in range(i, BASE_ROWS, N_USERS)
            }
            missing += len(expected - present)
        for params in acked.disputes[:: max(1, len(acked.disputes) // DISPUTE_CHECKS)]:
            missing += not client.believes(
                "Sightings", params[1:], path=[params[0]], sign="-"
            )
        result.check("acked_writes_readable", missing == 0,
                     f"{missing} acknowledged writes missing after SIGKILL")
        result.failed += missing
    finally:
        client.close()
        recovered.kill()


# --------------------------------------------------------------------- pass


def run_pass(
    inputs: dict[str, Any], seconds: float, recorder, workdir: Path,
    setup_reps: int = SETUP_REPS,
) -> PassResult:
    result = PassResult()
    traced = recorder is not None
    result.facts.update(client_threads=2, wal_sync=WAL_SYNC)
    spans_out = workdir / "server_spans.json" if traced else None
    reps = setup_reps
    session = start_session(result, workdir, reps, traced=traced, spans_out=spans_out)
    data_dir = workdir / f"data{reps - 1}"
    result.facts["wire"] = session.wire
    acked = Acked()
    try:
        pings = result.sample("ping")
        for _ in range(300):
            start = stats.now()
            session.writer.ping()
            pings.append(stats.now() - start)
        before = session.writer.metrics()
        if traced:
            import spans

            spans.install_layer_spans(recorder)  # the client-side codec spans
        try:
            frames = timed_phase(session, inputs, seconds, result, acked, recorder)
        finally:
            if traced:
                recorder.uninstall()
        after = session.writer.metrics()
        stats_after = session.writer.stats()
        layer_values(result, before, after, stats_after)
        codec_costs(result, frames)
        result.rss_mb = session.server.peak_rss_mb()
        result.attempted = result.ops + result.failed
        if traced:
            session.close_clients()
            session.server.stop()
            result.facts["server_spans"] = session.server.span_report()
        else:
            kill_and_recover(session, data_dir, result, acked,
                             stats_after["annotations"])
    finally:
        session.close_clients()
        session.server.kill()
    return result
