"""The sharded acceptance test: SIGKILL one worker mid-workload.

One shard's process is killed — no flush, no goodbye — while concurrent
writers stream a curation workload through the router. The contract:

1. the coordinator notices and restarts the worker on its own data dir,
   WAL replay included;
2. zero acknowledged writes are lost — every write the router answered
   before the kill is still entailed afterwards, checked *through the
   router*;
3. the other shard keeps serving throughout: its writer never sees an
   error, before, during, or after the victim's downtime;
4. writers hitting the dead shard get the typed ``SHARD_UNAVAILABLE``
   refusal (safe to retry), never a hang, and succeed on retry once the
   restarted incarnation registers.

Process workers make the kill a real ``SIGKILL``; ``wal_sync="always"``
makes "acknowledged" mean "on disk", so the recovery claim is exact.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ShardUnavailableError
from repro.server.client import BeliefClient
from repro.shard import HashRing, ShardCluster, WorkerSpec
from repro.workload.generator import concurrent_trace

N_SHARDS = 2
OPS_PER_USER = 250
KILL_AFTER_VICTIM_ACKS = 40
#: The survivor's last writes wait until the victim is killed, so that its
#: progress after the kill holds however fast its stream runs.
HELD_BACK = 5


def _pick_per_shard_names(n_shards: int) -> list[str]:
    """One user name per shard, chosen by the same ring the router uses."""
    ring = HashRing(n_shards)
    chosen: dict[int, str] = {}
    i = 0
    while len(chosen) < n_shards:
        name = f"user-{i}"
        chosen.setdefault(ring.shard_for(name), name)
        i += 1
    return [chosen[s] for s in range(n_shards)]


def _writer(
    address: tuple[str, int],
    name: str,
    ops,
    acked: list,
    lock: threading.Lock,
    failures: list,
    retry_unavailable: bool,
    gate: threading.Event | None = None,
) -> None:
    """Apply one user's write stream through the router.

    Selects are skipped: fan-out reads touch every shard and are
    down-shard sensitive by design (``test_coordinator`` pins that typed
    refusal); this test is about single-shard write availability. With a
    ``gate``, the last ``HELD_BACK`` writes wait for it to be set.
    """
    writes = [op for op in ops if op.kind != "select"]
    try:
        with BeliefClient(*address) as client:
            client.login(name, create=True)
            for i, op in enumerate(writes):
                if gate is not None and i == len(writes) - HELD_BACK:
                    if not gate.wait(timeout=60):
                        raise TimeoutError("the gate was never opened")
                sign = "+" if op.kind == "insert" else "-"
                deadline = time.time() + 60
                while True:
                    try:
                        ok = client.insert(
                            op.relation, list(op.values), sign=sign
                        )
                        break
                    except ShardUnavailableError:
                        # Typed, not-executed, safe to retry — the victim
                        # writer spins here until the restarted worker
                        # registers.
                        if not retry_unavailable or time.time() > deadline:
                            raise
                        time.sleep(0.05)
                # Only now — after the router's response arrived — is this
                # write acknowledged.
                with lock:
                    acked.append(
                        (name, op.relation, tuple(op.values), sign, bool(ok))
                    )
    except Exception as exc:  # noqa: BLE001 — collected, asserted empty
        failures.append((name, exc))


@pytest.mark.slow
def test_sigkill_one_worker_loses_no_acked_write_and_spares_the_rest(
    tmp_path,
):
    spec = WorkerSpec(wal_sync="always", checkpoint_interval=0.3)
    with ShardCluster(
        n_shards=N_SHARDS,
        spec=spec,
        worker_kind="process",
        data_dir=str(tmp_path / "shards"),
        ping_interval=0.05,
    ) as cluster:
        names = _pick_per_shard_names(N_SHARDS)
        victim = 0
        victim_name, survivor_name = names[victim], names[1]
        streams = concurrent_trace(N_SHARDS, OPS_PER_USER, seed=23)
        ops_by_name = dict(zip(names, streams.values()))

        acked: list = []
        ack_lock = threading.Lock()
        survivor_failures: list = []
        victim_failures: list = []
        killed = threading.Event()
        threads = [
            threading.Thread(
                target=_writer,
                args=(cluster.address, victim_name, ops_by_name[victim_name],
                      acked, ack_lock, victim_failures, True),
            ),
            threading.Thread(
                target=_writer,
                args=(cluster.address, survivor_name,
                      ops_by_name[survivor_name],
                      acked, ack_lock, survivor_failures, False, killed),
            ),
        ]
        for t in threads:
            t.start()

        def _counts() -> tuple[int, int]:
            with ack_lock:
                v = sum(1 for e in acked if e[0] == victim_name)
                s = sum(1 for e in acked if e[0] == survivor_name)
            return v, s

        try:
            deadline = time.time() + 60
            while time.time() < deadline:
                victim_acks, survivor_acks_at_kill = _counts()
                if victim_acks >= KILL_AFTER_VICTIM_ACKS:
                    break
                time.sleep(0.005)
            assert victim_acks >= KILL_AFTER_VICTIM_ACKS, (
                f"workload too slow: only {victim_acks} victim-shard acks"
            )

            # Real SIGKILL of the worker process: no flush, no goodbye.
            cluster.coordinator.kill_worker(victim)
        finally:
            killed.set()

        for t in threads:
            t.join(timeout=90)
        assert not any(t.is_alive() for t in threads), "writers hung"

        # The other shard kept serving: its writer never saw an error.
        assert survivor_failures == []
        # And it made progress after the kill, not just before.
        _, survivor_acks_final = _counts()
        assert survivor_acks_final > survivor_acks_at_kill
        # The victim writer's retries all converged.
        assert victim_failures == []

        # The coordinator restarted the victim on the same data dir.
        assert cluster.coordinator.wait_healthy(timeout=30)
        assert cluster.coordinator.restarts(victim) >= 1

        # Zero acknowledged writes lost, verified through the router
        # (which re-resolved the victim's new address via the epoch bump).
        accepted = [e for e in acked if e[4]]
        assert accepted, "no accepted writes recorded"
        with BeliefClient(*cluster.address) as verify:
            for name, relation, values, sign, _ in accepted:
                assert verify.believes(
                    relation, list(values), path=[name], sign=sign
                ), (
                    f"acknowledged write lost across worker crash: "
                    f"{name} {sign} {values}"
                )
