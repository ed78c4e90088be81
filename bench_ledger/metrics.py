"""The ledger's metric names, and how each is read off a measured pass.

``BENCHMARK.json`` lists the same names; ``tests/test_ledger_contract.py``
keeps the two in step. Every workload reports every metric: a per-layer
metric whose layer is idle on a workload reads 0 there, which is itself the
prediction ("zero on every engine-backend workload").
"""

from __future__ import annotations

from typing import Any

import stats
from harness import PassResult

# --------------------------------------------------------------- end to end

#: name, unit, better, bound. What each means on each workload is in
#: ``ledger.json`` (``end_to_end[*].on``) and the README glossary.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.20),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("write_p50_ms", "ms", "lower", 0.25),
    ("read_p50_ms", "ms", "lower", 0.25),
    ("relative_overhead", "rows/annotation", "lower", 0.10),
)

#: The latency samples behind ``write_p50_ms`` / ``read_p50_ms``. Where a
#: role covers several statement shapes the metric is the mean of their
#: medians: the median of the pooled samples would sit between two shapes'
#: clusters and move with the mix, not with the system.
ROLE_SAMPLES = {
    "table2_queries": (
        ("insert",),
        ("query.q1,0", "query.q1,1", "query.q1,2", "query.q1,3", "query.q1,4"),
    ),
    "annotation_load": (("insert",), ("readback",)),
    "served_closed": (("insert",), ("select",)),
    "served_openloop": (("insert",), ("select",)),
    "curation": (
        ("transition.work",),
        ("select.status", "select.confidence", "select.derived"),
    ),
}

#: The write as its caller sees it, where the gated role above is not that:
#: a ``curation`` transition is 60% device fsync wait, which did not repeat
#: within the bound run to run, so the gated sample is the time around the
#: ``os.fsync`` call and the whole is the ungated ``e2e.write_wall_p50_ms``.
WALL_WRITE_SAMPLES = {"curation": ("transition",)}


#: Which metrics are reported at reference CPU speed (see ``calibrate``):
#: those whose time is interpreter work. A time that waits on fsync, on the
#: interpreter's switch timer or on memory copies does not follow the CPU
#: kernel and is reported as measured.
CALIBRATED = {
    "table2_queries": {"setup_s", "ops_per_s", "read_p50_ms"},
    "annotation_load": {"ops_per_s", "write_p50_ms", "read_p50_ms"},
    "served_closed": set(),
    "served_openloop": set(),
    "curation": {"ops_per_s", "read_p50_ms"},
}


def role_p50(run: PassResult, names: tuple[str, ...], scale: float) -> float:
    return stats.mean([stats.p50(run.lat.get(name, ()), scale) for name in names])


def ops_per_s(workload: str, run: PassResult) -> float:
    """Completed operations per second of the timed phase, as measured."""
    if workload == "served_openloop":
        return run.values["openloop.top_achieved_rate"]
    return run.ops / run.wall_s if run.wall_s else 0.0


def end_to_end(workload: str, run: PassResult) -> dict[str, float]:
    write, read = ROLE_SAMPLES[workload]
    out = {
        "setup_s": stats.p50(run.setup_s),
        "ops_per_s": ops_per_s(workload, run),
        "peak_rss_mb": run.rss_mb,
        "write_p50_ms": role_p50(run, write, 1e3),
        "read_p50_ms": role_p50(run, read, 1e3),
        "relative_overhead": run.values["storage.relative_overhead"],
    }
    for name in CALIBRATED[workload]:
        if name == "setup_s":
            out[name] *= run.setup_factor
        elif name == "ops_per_s":
            out[name] /= run.timed_factor  # a rate: the inverse of a time
        else:
            out[name] *= run.timed_factor
    return out


# ---------------------------------------------------------------- per layer

#: (name, unit, better). Times are self time of calls into the layer's public
#: functions in the traced pass unless a counter is named in the README.
PER_LAYER = (
    ("beliefsql.parse_us", "us", "lower"),
    ("beliefsql.compile_us", "us", "lower"),
    ("beliefsql.bind_us", "us", "lower"),
    ("bdms.stmt_cache_hit_rate", "ratio", "higher"),
    ("bdms.execute_prepared_insert_us", "us", "lower"),
    ("bdms.execute_prepared_select_us", "us", "lower"),
    ("bdms.commit_ms", "ms", "lower"),
    ("bdms.commit_rows", "count", "higher"),
    ("query.translate_ms", "ms", "lower"),
    ("query.evaluate_ms", "ms", "lower"),
    ("query.result_rows", "count", "lower"),
    ("query.sql_gen_ms", "ms", "lower"),
    ("query.sqlite_exec_ms", "ms", "lower"),
    ("relational.mirror_sync_ms", "ms", "lower"),
    ("relational.mirror_syncs", "count", "lower"),
    ("storage.insert_d0_us", "us", "lower"),
    ("storage.insert_d1_us", "us", "lower"),
    ("storage.insert_d2_us", "us", "lower"),
    ("storage.rows_v", "count", "lower"),
    ("storage.rows_e", "count", "lower"),
    ("storage.rows_star", "count", "lower"),
    ("storage.worlds", "count", "lower"),
    ("storage.overhead_m10_zipf", "rows/annotation", "lower"),
    ("storage.rejected_inserts", "count", "lower"),
    ("storage.fork_us", "us", "lower"),
    ("storage.pin_us", "us", "lower"),
    ("storage.snapshot_builds", "count", "lower"),
    ("storage.pins", "count", "lower"),
    ("storage.live_versions_max", "count", "lower"),
    ("durability.append_us", "us", "lower"),
    ("durability.fsync_us", "us", "lower"),
    ("durability.fsyncs", "count", "lower"),
    ("durability.records_per_fsync", "count", "higher"),
    ("durability.wal_bytes_per_write", "bytes", "lower"),
    ("durability.checkpoints", "count", "lower"),
    ("durability.snapshot_write_ms", "ms", "lower"),
    ("durability.replay_records_per_s", "1/s", "higher"),
    ("durability.recovered_records", "count", "lower"),
    ("server.encode_json_us", "us", "lower"),
    ("server.decode_json_us", "us", "lower"),
    ("server.encode_binary_us", "us", "lower"),
    ("server.decode_binary_us", "us", "lower"),
    ("server.request_bytes", "bytes", "lower"),
    ("server.response_bytes", "bytes", "lower"),
    ("server.ping_rtt_us", "us", "lower"),
    ("server.op_mean_us.execute_prepared", "us", "lower"),
    ("server.op_mean_us.commit", "us", "lower"),
    ("server.op_mean_us.execute_batch", "us", "lower"),
    ("server.lock_wait_write_us", "us", "lower"),
    ("server.lock_hold_write_us", "us", "lower"),
    ("server.client_side_us", "us", "lower"),
    ("server.sheds", "count", "lower"),
    ("server.generator_late_p99_ms", "ms", "lower"),
    ("api.cursor_overhead_us", "us", "lower"),
    ("lifecycle.apply_us.propose", "us", "lower"),
    ("lifecycle.apply_us.transition", "us", "lower"),
    ("lifecycle.apply_us.decay_sweep", "us", "lower"),
    ("lifecycle.provenance_us", "us", "lower"),
    ("lifecycle.audit_read_ms", "ms", "lower"),
    ("lifecycle.conflicts", "count", "lower"),
    ("lifecycle.audit_events", "count", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "higher"),
    ("obs.cpu_factor", "ratio", "higher"),
    # What one durable execute_prepared insert on served_closed is made of
    # (traced pass, mean per insert; the parts sum to share.insert.total_us).
    ("share.insert.fsync_us", "us", "lower"),
    ("share.insert.wal_append_us", "us", "lower"),
    ("share.insert.engine_us", "us", "lower"),
    ("share.insert.dispatch_lock_us", "us", "lower"),
    ("share.insert.codec_us", "us", "lower"),
    ("share.insert.transit_wake_us", "us", "lower"),
    ("share.insert.client_us", "us", "lower"),
    ("share.insert.total_us", "us", "lower"),
    ("share.insert.untraced_mean_us", "us", "lower"),
    # Candidates for the gated set that exist on one workload only, or did
    # not repeat within a tenth run to run: informational, from the
    # untraced pass. The README records the reason for each.
    ("e2e.conflict_query_p50_ms", "ms", "lower"),
    ("e2e.user_query_p50_ms", "ms", "lower"),
    ("e2e.sqlite_round_p50_ms", "ms", "lower"),
    ("e2e.scan_p90_ms", "ms", "lower"),
    ("e2e.commit_p50_ms", "ms", "lower"),
    ("e2e.recovery_s", "s", "lower"),
    ("e2e.openloop_p95_ms", "ms", "lower"),
    ("e2e.max_rate_ok", "1/s", "higher"),
    ("e2e.read_p90_ms", "ms", "lower"),
    ("e2e.write_p90_ms", "ms", "lower"),
    ("e2e.write_wall_p50_ms", "ms", "lower"),
)


def _span_us(summary: dict[str, dict], name: str) -> float:
    entry = summary.get(name)
    return entry["self_s"] / entry["count"] * 1e6 if entry else 0.0


def _insert_shares(
    client: dict[str, Any], server: dict[str, Any], fsync_us: float
) -> dict[str, float]:
    """Mean microseconds of one traced insert, by where they were spent."""
    request = server.get("requests", {}).get("bdms.execute_prepared.insert")
    if not client.get("roots") or request is None:
        return {}
    c = {k: v * 1e6 for k, v in client["parts_mean_s"].items()}
    s = {k: v * 1e6 for k, v in request["parts_mean_s"].items()}
    window = request["window_mean_s"] * 1e6
    durability = s.get("durability.append", 0.0) + s.get("durability.log", 0.0)
    fsync = min(fsync_us, durability)
    codec = (
        s.get("server.decode_binary", 0.0) + s.get("server.encode_binary", 0.0)
        + c.get("server.decode_binary", 0.0) + c.get("server.encode_binary", 0.0)
    )
    dispatch = s.get("server.lock_wait_write", 0.0) + s.get("other", 0.0)
    # Client wait not covered by the server's decode-to-write window: the
    # kernel's transit both ways plus the server thread waking up (with two
    # connection threads, waiting for the GIL after recv returns), plus the
    # send calls themselves.
    transit_wake = (
        max(0.0, c.get("server.read", 0.0) - window)
        + s.get("server.write", 0.0) + c.get("server.write", 0.0)
    )
    engine = window - (
        durability + dispatch + s.get("server.write", 0.0)
        + s.get("server.decode_binary", 0.0) + s.get("server.encode_binary", 0.0)
    )
    client_us = c.get("client.insert", 0.0)
    return {
        "share.insert.fsync_us": fsync,
        "share.insert.wal_append_us": durability - fsync,
        "share.insert.engine_us": engine,
        "share.insert.dispatch_lock_us": dispatch,
        "share.insert.codec_us": codec,
        "share.insert.transit_wake_us": transit_wake,
        "share.insert.client_us": client_us,
        "share.insert.total_us": client["root_mean_s"] * 1e6,
    }


def per_layer(
    workload: str,
    untraced: PassResult,
    traced: PassResult,
    client_summary: dict[str, dict],
    client_insert: dict[str, Any],
) -> dict[str, float]:
    """Every per-layer metric of one ``--trace 1`` run.

    Counts and the informational end-to-end numbers come from the untraced
    pass; self times come from the traced pass — the server child's span
    report when the workload is served, this process's recorder otherwise.
    """
    server = traced.facts.get("server_spans", {})
    spans = server.get("summary") or client_summary
    u, t = untraced.values, traced.values
    out = {name: 0.0 for name, _, _ in PER_LAYER}

    for name in ("parse", "compile", "bind"):
        out[f"beliefsql.{name}_us"] = _span_us(spans, f"beliefsql.{name}")
    out["bdms.execute_prepared_insert_us"] = _span_us(spans, "bdms.execute_prepared.insert")
    out["bdms.execute_prepared_select_us"] = max(
        _span_us(spans, "bdms.execute_prepared.select"),
        _span_us(spans, "bdms.execute_prepared.lifecycle_select"),
    )
    out["bdms.commit_ms"] = _span_us(spans, "bdms.commit") / 1e3
    out["query.translate_ms"] = _span_us(spans, "query.translate") / 1e3
    out["query.evaluate_ms"] = _span_us(spans, "query.evaluate") / 1e3
    out["query.sql_gen_ms"] = _span_us(spans, "query.sql_gen") / 1e3
    out["query.sqlite_exec_ms"] = _span_us(spans, "query.sqlite_exec") / 1e3
    out["relational.mirror_sync_ms"] = _span_us(spans, "relational.mirror_sync") / 1e3
    for depth in (0, 1, 2):
        out[f"storage.insert_d{depth}_us"] = _span_us(spans, f"storage.insert_d{depth}")
    out["storage.pin_us"] = _span_us(spans, "storage.pin")
    out["durability.snapshot_write_ms"] = _span_us(spans, "durability.checkpoint") / 1e3
    for action in ("propose", "transition", "decay_sweep"):
        out[f"lifecycle.apply_us.{action}"] = _span_us(spans, f"lifecycle.apply.{action}")
    out["lifecycle.provenance_us"] = _span_us(spans, "lifecycle.provenance")
    out["lifecycle.audit_read_ms"] = _span_us(spans, "lifecycle.audit_read") / 1e3
    if "storage.fork_us" not in u:
        out["storage.fork_us"] = _span_us(spans, "storage.fork")

    # Counters and plain numbers, as the untraced pass read them.
    for name in out:
        if name in u:
            out[name] = float(u[name])
    out["storage.rows_v"] = float(u.get("storage.rows.v_Sightings", 0))
    out["storage.rows_e"] = float(u.get("storage.rows.E", 0))
    out["storage.rows_star"] = float(u.get("storage.rows.star_Sightings", 0))
    out["server.ping_rtt_us"] = stats.p50(untraced.lat.get("ping", ()), 1e6)
    out["server.generator_late_p99_ms"] = stats.quantile_or_zero(
        untraced.lat.get("generator_late", ()), 0.99, 1e3
    )
    if workload == "served_closed":
        observed = untraced.lat.get("insert", []) + untraced.lat.get("select", [])
        out["server.client_side_us"] = (
            stats.mean(observed, 1e6) - u["server.op_mean_us.execute_prepared"]
        )

    rate_u = ops_per_s(workload, untraced)
    out["obs.trace_overhead_ratio"] = (
        ops_per_s(workload, traced) / rate_u if rate_u else 0.0
    )
    out["obs.cpu_factor"] = untraced.timed_factor
    out.update(_insert_shares(client_insert, server, t.get("durability.fsync_us", 0.0)))
    if workload == "served_closed":
        out["share.insert.untraced_mean_us"] = stats.mean(
            untraced.lat.get("insert", ()), 1e6
        )

    lat = untraced.lat
    write, read = ROLE_SAMPLES[workload]
    out["e2e.conflict_query_p50_ms"] = stats.p50(lat.get("query.q2", ()), 1e3)
    out["e2e.user_query_p50_ms"] = stats.p50(lat.get("query.q3", ()), 1e3)
    out["e2e.sqlite_round_p50_ms"] = stats.p50(lat.get("sqlite_round", ()), 1e3)
    if workload == "served_closed":
        out["e2e.scan_p90_ms"] = stats.quantile_or_zero(lat.get("scan", ()), 0.9, 1e3)
    out["e2e.commit_p50_ms"] = stats.p50(lat.get("commit", ()), 1e3)
    out["e2e.recovery_s"] = float(u.get("recovery_s", 0.0))
    out["e2e.openloop_p95_ms"] = stats.quantile_or_zero(lat.get("openloop", ()), 0.95, 1e3)
    out["e2e.max_rate_ok"] = float(u.get("openloop.max_rate_ok", 0.0))
    out["e2e.read_p90_ms"] = stats.quantile_or_zero(
        [x for name in read for x in lat.get(name, ())], 0.9, 1e3)
    wall_write = WALL_WRITE_SAMPLES.get(workload, write)
    out["e2e.write_p90_ms"] = stats.quantile_or_zero(
        [x for name in wall_write for x in lat.get(name, ())], 0.9, 1e3)
    out["e2e.write_wall_p50_ms"] = role_p50(untraced, wall_write, 1e3)
    return out
