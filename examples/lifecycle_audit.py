#!/usr/bin/env python3
"""Belief lifecycle, provenance & audit — the same demo on every deployment.

Runs one curation scene against each deployment shape — embedded BDMS,
threaded server, asyncio server, and a 2-shard router — and then proves the
durability story with a real ``kill -9``:

1. Carol reports a sighting and proposes lifecycle tracking for it
   (``PROPOSED``, confidence 0.9, derived from volunteer Bob);
2. a reviewer accepts it (``ACTIVE``);
3. two curators *race* to challenge the same belief with compare-and-swap
   transitions — exactly one wins, the loser gets the typed
   ``LifecycleConflictError`` and backs off cleanly;
4. the challenge is resolved, a decay sweep ages confidences, and the
   audit log shows the whole linear history with provenance intact.

Finally the durable variant: the same scene against a ``repro serve
--data-dir`` subprocess that is SIGKILLed mid-history and restarted — the
recovered audit log is identical to the pre-kill one.

Run:  python examples/lifecycle_audit.py
"""

import os
import pathlib
import re
import signal
import subprocess
import sys
import threading

try:
    import repro  # noqa: F401
except ModuleNotFoundError:  # running from a checkout without PYTHONPATH
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro import sightings_schema
from repro.bdms.bdms import BeliefDBMS
from repro.errors import LifecycleConflictError
from repro.server import AsyncBeliefServer, BeliefClient, BeliefServer
from repro.shard import ShardCluster

SIGHTING = ["s1", "Carol", "bald eagle", "6-14-08", "Lake Forest"]


def run_scene(client: BeliefClient) -> list[dict]:
    """The curation scene against whatever ``client`` is connected to."""
    client.login("Bob", create=True)
    client.login("Carol", create=True)
    inserted = client.execute_prepared(
        "insert into Sightings values (?,?,?,?,?)", SIGHTING)
    assert inserted["rowcount"] == 1

    view = client.lifecycle_propose(
        "Sightings", SIGHTING,
        confidence=0.9, decay="exponential:3600", derived_from=["Bob"],
    )
    belief = view["belief"]
    print(f"  proposed {belief} ({view['status']}, conf {view['confidence']})")

    client.lifecycle_transition(belief, "ACTIVE", expect="PROPOSED",
                                path=["Carol"])

    # Two curators race to challenge the same ACTIVE belief. The CAS
    # (expect="ACTIVE") guarantees exactly one winner; the loser's typed
    # conflict is the clean back-off signal.
    outcomes: dict[str, str] = {}
    barrier = threading.Barrier(2)

    def challenger(who: str) -> None:
        with BeliefClient(client.host, client.port) as mine:
            mine.login(who)
            barrier.wait(timeout=10)
            try:
                mine.lifecycle_transition(
                    belief, "CHALLENGED", expect="ACTIVE",
                    reason=f"{who} disputes the species", path=["Carol"],
                )
                outcomes[who] = "won the challenge"
            except LifecycleConflictError as exc:
                outcomes[who] = f"lost cleanly: {exc}"

    threads = [
        threading.Thread(target=challenger, args=(w,))
        for w in ("Bob", "Carol")
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for who, outcome in sorted(outcomes.items()):
        print(f"  {who}: {outcome}")
    assert sum(o == "won the challenge" for o in outcomes.values()) == 1

    client.lifecycle_transition(belief, "ACTIVE", expect="CHALLENGED",
                                reason="evidence checks out", path=["Carol"])
    swept = client.lifecycle_decay_sweep()
    print(f"  decay sweep: {swept['swept']} swept, {swept['changed']} aged")

    chain = client.provenance(belief)["chain"]
    assert chain[0]["derived_from"] == ["Bob"]
    events = client.audit_log(belief=belief)
    history = " -> ".join(e["to"] for e in events if e.get("to"))
    print(f"  audit: {len(events)} events, history {history}, "
          f"provenance <- Bob")
    return events


def durable_kill_minus_nine(data_dir: pathlib.Path) -> None:
    """The same scene, a SIGKILL, and a bit-identical recovered audit."""
    env = dict(os.environ)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")

    def spawn():
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
             "--schema", "sightings", "--data-dir", str(data_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env,
        )
        for line in proc.stdout:
            match = re.search(r"listening on ([\d.]+):(\d+)", line)
            if match:
                threading.Thread(
                    target=proc.stdout.read, daemon=True
                ).start()
                return proc, (match.group(1), int(match.group(2)))
        raise RuntimeError("server never reported its address")

    proc, address = spawn()
    try:
        with BeliefClient(*address) as client:
            before = run_scene(client)
    finally:
        proc.send_signal(signal.SIGKILL)  # mid-history, no flush
        proc.wait(timeout=10)
    print("  kill -9 delivered; restarting from the WAL ...")

    proc, address = spawn()
    try:
        with BeliefClient(*address) as client:
            belief = before[0]["belief"]
            after = client.audit_log(belief=belief)
            assert after == before, "audit history diverged across the crash"
            assert client.provenance(belief)["chain"][0][
                "derived_from"
            ] == ["Bob"]
            print(f"  recovered audit identical: {len(after)} events, "
                  f"status {client.lifecycle_get(belief)['status']}")
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)


def main() -> None:
    print("== embedded (in-process server facade over one BDMS) ==")
    with BeliefServer(
        BeliefDBMS(sightings_schema(), strict=False), port=0
    ) as server:
        with BeliefClient(*server.address) as client:
            run_scene(client)

    print("== threaded server ==")
    with BeliefServer(
        BeliefDBMS(sightings_schema(), strict=False), port=0
    ) as server:
        with BeliefClient(*server.address) as client:
            run_scene(client)

    print("== asyncio server ==")
    with AsyncBeliefServer(
        BeliefDBMS(sightings_schema(), strict=False)
    ) as server:
        with BeliefClient(*server.address) as client:
            run_scene(client)

    print("== 2-shard router ==")
    with ShardCluster(n_shards=2) as cluster:
        with BeliefClient(*cluster.address) as client:
            run_scene(client)

    print("== durable server + kill -9 ==")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        durable_kill_minus_nine(pathlib.Path(tmp) / "data")

    print("all deployments agree: one winner, typed conflicts, linear "
          "replayable audit")


if __name__ == "__main__":
    main()
