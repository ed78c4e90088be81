"""``curation``: the lifecycle subsystem under a curation desk, embedded and durable.

One thread on a ``BeliefDBMS`` with ``wal_sync=always`` and ~2000 tracked
beliefs whose derivation chains are at most four deep. The stream mixes
propose / compare-and-swap transitions (a fifth of them deliberately stale,
which must fail typed) / decay sweeps / ``audit_log`` and ``provenance``
reads with prepared selects carrying ``WITH status = ?``,
``WITH confidence >= ?`` and ``WITH DERIVED FROM ?`` through ``connect()``
cursors. ``lifecycle`` (registry apply, provenance walk, the per-row
``WITH`` evaluator in ``bdms``) does most of the work; it is idle in the
other four workloads.

The device's fsync wait is 60% of a transition and half of the set-up, and
on a shared host it wanders by a quarter from one run to the next. The two
gated times it would dominate, ``write_p50_ms`` and ``setup_s``, therefore
leave it out: each is the time around the ``os.fsync`` calls, read off
``beliefdb_wal_fsync_seconds``. The wait itself stays in ``ops_per_s`` (an
eighth of the phase) and is reported by ``durability.fsync_us``,
``transition.fsync_wait`` and ``e2e.write_wall_p50_ms``.
"""

from __future__ import annotations

import gc
import random
from pathlib import Path
from typing import Any

import stats
from calibrate import Calibrator
from harness import WAL_SYNC, PassResult, digest, self_rss_mb

NAME = "curation"
WHY = (
    "lifecycle only: propose/CAS-transition/decay/audit/provenance plus WITH-filtered "
    "selects on 2000 tracked beliefs, durable; the per-row Python WITH evaluator's cell"
)

CURATORS = ("Alice", "Bob", "Carol", "Dave")
BASE_BELIEFS = 2000
MAX_CHAIN_DEPTH = 4
MAX_OPS = 60000
SETUP_REPS = 3
T0 = 1_250_000_000.0  # a fixed clock: decay sweeps repeat exactly
STALE_SHARE = 0.2
TICK_EVERY = 128  # operations between two calibration kernels
FSYNC_SECONDS = "beliefdb_wal_fsync_seconds"  # time inside os.fsync on the WAL
#: Cumulative shares of the op kinds.
MIX = (
    ("select", 0.45), ("transition", 0.75), ("propose", 0.83),
    ("audit", 0.91), ("provenance", 0.997), ("sweep", 1.0),
)

SELECTS = {
    "status": "select s.sid from BELIEF ? Sightings s with status = ?",
    "confidence": (
        "select s.sid, s.species from BELIEF ? Sightings s with confidence >= ?"
    ),
    "derived": "select s.sid from BELIEF ? Sightings s with derived from ?",
}


def _sighting(rng: random.Random, index: int, curator: str) -> tuple:
    from repro.workload.generator import LOCATIONS, SPECIES

    return (
        f"cs{index}", curator, rng.choice(SPECIES),
        f"{rng.randrange(1, 13)}-{rng.randrange(1, 29)}-08",
        rng.choice(LOCATIONS),
    )


def make_inputs(seed: int) -> dict[str, Any]:
    """The base beliefs and the op stream, with statuses simulated here.

    Beliefs are named by index; the driver maps an index to the id the
    system returns from ``propose``. Simulating the state machine while
    generating lets every op carry what must happen (a legal move, a stale
    ``expect``, the exact row count of a status select).
    """
    from repro.lifecycle.model import STATUSES, TRANSITIONS

    rng = random.Random(seed)
    status: list[str] = []
    world: list[int] = []
    depth: list[int] = []
    in_status = [dict.fromkeys(STATUSES, 0) for _ in CURATORS]

    def new_belief(parent: int | None) -> dict[str, Any]:
        index = len(status)
        curator = index % len(CURATORS)
        status.append("PROPOSED")
        world.append(curator)
        depth.append(0 if parent is None else depth[parent] + 1)
        in_status[curator]["PROPOSED"] += 1
        return {
            "index": index,
            "curator": CURATORS[curator],
            "values": _sighting(rng, index, CURATORS[curator]),
            "confidence": round(0.5 + rng.random() / 2, 3),
            "decay": "exponential:1800" if index % 2 else "none",
            "parent": parent,
            "reviewer": CURATORS[(curator + 1) % len(CURATORS)],
        }

    base = []
    for i in range(BASE_BELIEFS):
        chained = i % (MAX_CHAIN_DEPTH + 1) != 0
        base.append(new_belief(i - 1 if chained else None))

    ops: list[tuple] = []
    while len(ops) < MAX_OPS:
        roll = rng.random()
        kind = next(name for name, upto in MIX if roll < upto)
        if kind == "select":
            shape = rng.choice(("status", "confidence", "derived"))
            curator = rng.randrange(len(CURATORS))
            if shape == "status":
                wanted = rng.choice(STATUSES)
                ops.append(("select", shape, CURATORS[curator], wanted,
                            in_status[curator][wanted]))
            elif shape == "confidence":
                ops.append(("select", shape, CURATORS[curator],
                            round(0.5 + rng.random() * 0.45, 2), None))
            else:
                ops.append(("select", shape, CURATORS[curator],
                            ("belief", rng.randrange(len(status))), None))
        elif kind == "transition":
            index = rng.randrange(len(status))
            moves = sorted(TRANSITIONS[status[index]])
            if not moves:
                continue  # ARCHIVED is terminal; draw again
            to = rng.choice(moves)
            if rng.random() < STALE_SHARE:
                stale = rng.choice([s for s in STATUSES if s != status[index]])
                ops.append(("transition", index, to, stale, False))
            else:
                ops.append(("transition", index, to, status[index], True))
                in_status[world[index]][status[index]] -= 1
                in_status[world[index]][to] += 1
                status[index] = to
        elif kind == "propose":
            parent = rng.randrange(len(status))
            if depth[parent] >= MAX_CHAIN_DEPTH:
                parent = None
            ops.append(("propose", new_belief(parent)))
        elif kind in ("audit", "provenance"):
            ops.append((kind, rng.randrange(len(status))))
        else:
            ops.append(("sweep",))
    return {
        "base": base,
        "ops": ops,
        "digest": digest([base[:500], ops[:8000], len(ops)]),
    }


class Desk:
    """The database, its cursor, and the index → belief id map."""

    def __init__(self, data_dir: Path, base: list[dict]) -> None:
        from repro.api import connect
        from repro.bdms.bdms import BeliefDBMS
        from repro.core.schema import sightings_schema
        from repro.durability import DurabilityManager

        self.db = BeliefDBMS(
            sightings_schema(), strict=False,
            durability=DurabilityManager(str(data_dir), sync=WAL_SYNC),
        )
        for name in CURATORS:
            self.db.add_user(name)
        self.ids: list[str] = []
        self.clock = T0
        for belief in base:
            self.propose(belief)
        self.conn = connect(self.db, user=CURATORS[0])
        self.cursor = self.conn.cursor()
        # Warm: prepare the three select shapes, pin the first version.
        for shape, sql in SELECTS.items():
            arg: Any = {"status": "ACTIVE", "confidence": 0.9}.get(shape, self.ids[0])
            self.cursor.execute(sql, (CURATORS[0], arg))

    def tick(self) -> float:
        self.clock += 1.0
        return self.clock

    def propose(self, belief: dict) -> None:
        path = (belief["curator"],)
        self.db.insert(path, "Sightings", belief["values"])
        derived = [belief["reviewer"]]
        if belief["parent"] is not None:
            derived.append(self.ids[belief["parent"]])
        view = self.db.lifecycle_propose(
            path, "Sightings", belief["values"], actor=belief["curator"],
            confidence=belief["confidence"], decay=belief["decay"],
            derived_from=derived, ts=self.tick(),
        )
        self.ids.append(view["belief"])

    def close(self) -> None:
        self.conn.close()
        self.db.close()


def run_stream(
    desk: Desk, ops: list, seconds: float, result: PassResult, cpu: Calibrator
) -> dict[str, int]:
    from repro.errors import LifecycleConflictError

    db, cursor, ids = desk.db, desk.cursor, desk.ids
    lat = {
        name: result.sample(name)
        for name in ("select.status", "select.confidence", "select.derived",
                     "transition", "transition.fsync_wait", "transition.work",
                     "stale_transition", "propose", "audit", "provenance", "sweep")
    }
    fsync = db.metrics.get(FSYNC_SECONDS)
    counts = dict.fromkeys(
        ("proposed", "transitions", "stale", "stale_typed", "sweeps",
         "wrong_selects", "done"), 0
    )
    deadline = stats.now() + seconds
    for index, op in enumerate(ops):
        if stats.now() >= deadline:
            break
        if index % TICK_EVERY == 0:
            cpu.tick()
        kind = op[0]
        start = stats.now()
        if kind == "select":
            _, shape, curator, arg, expected = op
            if shape == "derived":
                arg = ids[arg[1]]
            rows = cursor.execute(SELECTS[shape], (curator, arg)).rowcount
            lat[f"select.{shape}"].append(stats.now() - start)
            if expected is not None and rows != expected:
                counts["wrong_selects"] += 1
        elif kind == "transition":
            _, index, to, expect, legal = op
            waited = fsync.sum
            try:
                db.lifecycle_transition(
                    ids[index], to, actor=CURATORS[index % 4], expect=expect,
                    ts=desk.tick(),
                )
                applied = True
            except LifecycleConflictError:
                applied = False
            if legal:
                took = stats.now() - start
                waited = fsync.sum - waited
                lat["transition"].append(took)
                lat["transition.fsync_wait"].append(waited)
                lat["transition.work"].append(took - waited)
                counts["transitions"] += applied
            else:
                lat["stale_transition"].append(stats.now() - start)
                counts["stale"] += 1
                counts["stale_typed"] += not applied
        elif kind == "propose":
            desk.propose(op[1])
            lat["propose"].append(stats.now() - start)
            counts["proposed"] += 1
        elif kind == "audit":
            db.audit_log(belief=ids[op[1]])
            lat["audit"].append(stats.now() - start)
        elif kind == "provenance":
            db.provenance(ids[op[1]])
            lat["provenance"].append(stats.now() - start)
        else:
            db.lifecycle_decay_sweep(now=desk.tick())
            lat["sweep"].append(stats.now() - start)
            counts["sweeps"] += 1
        counts["done"] += 1
    return counts


def cursor_overhead(desk: Desk, ops: list, result: PassResult) -> None:
    """``Cursor.execute`` minus the ``execute_prepared`` under it."""
    selects = [op for op in ops if op[0] == "select"][:500]
    via_cursor: list[float] = []
    direct: list[float] = []
    for _, shape, curator, arg, _ in selects:
        if shape == "derived":
            arg = desk.ids[arg[1]]
        sql, params = SELECTS[shape], (curator, arg)
        start = stats.now()
        desk.cursor.execute(sql, params)
        mid = stats.now()
        desk.db.execute_prepared(desk.db.prepare(sql), params)
        end = stats.now()
        via_cursor.append(mid - start)
        direct.append(end - mid)
    result.values["api.cursor_overhead_us"] = (
        stats.p50(via_cursor, 1e6) - stats.p50(direct, 1e6)
    )


def run_pass(
    inputs: dict[str, Any], seconds: float, recorder, workdir: Path,
    setup_reps: int = SETUP_REPS,
) -> PassResult:
    result = PassResult()
    traced = recorder is not None
    result.facts.update(client_threads=1, wal_sync=WAL_SYNC)
    desk = None
    setup_cpu, timed_cpu = Calibrator(), Calibrator()
    for rep in range(setup_reps):
        if desk is not None:
            desk.close()
        setup_cpu.tick()
        start = stats.now()
        desk = Desk(workdir / f"data{rep}", inputs["base"])
        elapsed = stats.now() - start
        waited = desk.db.metrics.get(FSYNC_SECONDS).sum  # a fresh registry
        result.setup_s.append(elapsed - waited)
        result.facts.setdefault("setup_fsync_wait_s", []).append(waited)
        setup_cpu.tick()
    assert desk is not None
    gc.collect()
    try:
        audit_before = desk.db.store.lifecycle.audit_count()
        conflicts_before = desk.db.metrics.get(
            "beliefdb_lifecycle_conflicts_total").value
        if traced:
            import spans

            spans.install_layer_spans(recorder)
        try:
            start = stats.now()
            counts = run_stream(desk, inputs["ops"], seconds, result, timed_cpu)
            result.wall_s = stats.now() - start - sum(timed_cpu.samples)
        finally:
            if traced:
                recorder.uninstall()
        cursor_overhead(desk, inputs["ops"], result)

        snapshot = desk.db.snapshot_stats()
        audit_events = snapshot["lifecycle"]["audit_events"]
        conflicts = desk.db.metrics.get(
            "beliefdb_lifecycle_conflicts_total").value - conflicts_before
        expected = (audit_before + counts["proposed"] + counts["transitions"]
                    + counts["sweeps"])
        checks = (
            ("audit_accounting", audit_events == expected,
             f"{audit_events} events vs {expected} applied operations"),
            ("stale_fail_typed", counts["stale_typed"] == counts["stale"],
             f"{counts['stale_typed']}/{counts['stale']} stale transitions "
             "raised LifecycleConflictError"),
            ("status_select_counts", counts["wrong_selects"] == 0,
             f"{counts['wrong_selects']} status selects with a wrong row count"),
        )
        for name, ok, detail in checks:
            if not result.check(name, ok, detail):
                result.failed += 1
        result.ops = counts["done"]
        result.attempted = result.ops + result.failed
        v = result.values
        v["lifecycle.conflicts"] = conflicts
        v["lifecycle.audit_events"] = audit_events - audit_before
        v["storage.relative_overhead"] = snapshot["relative_overhead"]
        v["storage.snapshot_builds"] = snapshot["mvcc"]["snapshot_builds"]
        v["storage.pins"] = snapshot["mvcc"]["pins_total"]
        v["bdms.stmt_cache_hit_rate"] = snapshot["statement_cache"]["hit_rate"]
        durability = snapshot["durability"]
        v["durability.checkpoints"] = durability["checkpoints"]
        v["durability.wal_bytes_per_write"] = (
            durability["wal_bytes"] / max(1, durability["wal_records_written"])
        )
        for name in ("append", "fsync"):
            hist = desk.db.metrics.get(f"beliefdb_wal_{name}_seconds")
            v[f"durability.{name}_us"] = (
                hist.sum / hist.count * 1e6 if hist.count else 0.0
            )
        v["durability.fsyncs"] = desk.db.metrics.get(FSYNC_SECONDS).count
        result.rss_mb = self_rss_mb()
        result.setup_factor = setup_cpu.factor()
        result.timed_factor = timed_cpu.factor()
    finally:
        desk.close()
    return result
