"""The lifecycle durability acceptance test: SIGKILL mid-transition.

Curator threads stream CAS transitions at a durable server subprocess; the
process is SIGKILLed with no warning mid-stream. After WAL recovery the
audit log and the statuses must agree — for every tracked belief:

* the recovered audit history is a legal walk of the transition table
  starting at the propose;
* the live status equals the last audit event's ``to``;
* every *acknowledged* transition is present, in order, with at most one
  trailing applied-but-unacknowledged op after the acked prefix.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import experiment_schema
from repro.durability import DurabilityManager
from repro.lifecycle.model import PROPOSED, TRANSITIONS
from repro.server import BeliefClient

from tests.durability.test_crash_recovery import INSERT, _kill, _spawn_server

N_CURATORS = 3
BELIEFS_PER_CURATOR = 2
KILL_AFTER_ACKS = 60

#: The endless legal cycle each curator walks per belief.
_CYCLE = ("ACTIVE", "CHALLENGED", "ACTIVE", "CHALLENGED", "DEPRECATED",
          "ARCHIVED")


def _curate(
    address: tuple[str, int],
    name: str,
    acked: dict[str, list[str]],
    lock: threading.Lock,
) -> None:
    """Propose a few beliefs, then stream transitions; record acked ops."""
    try:
        with BeliefClient(*address) as client:
            client.login(name, create=True)
            beliefs: list[str] = []
            for i in range(BELIEFS_PER_CURATOR):
                row = [f"{name}-s{i}", name, "crow", "6-14-08", "lake"]
                assert client.execute_prepared(INSERT, row)["rowcount"] == 1
                view = client.lifecycle_propose(
                    "Sightings", row, confidence=0.8,
                    decay="exponential:3600", derived_from=[name],
                )
                with lock:
                    acked[view["belief"]] = []
                beliefs.append(view["belief"])
            # Walk each belief through the cycle, round-robin, forever (the
            # SIGKILL ends it). ARCHIVED parks the belief; re-propose a
            # fresh one to keep the stream going.
            step = {b: 0 for b in beliefs}
            gen = BELIEFS_PER_CURATOR
            while True:
                for b in list(beliefs):
                    to = _CYCLE[step[b] % len(_CYCLE)]
                    expect = (
                        PROPOSED if step[b] == 0
                        else _CYCLE[(step[b] - 1) % len(_CYCLE)]
                    )
                    if expect == "ARCHIVED":
                        beliefs.remove(b)
                        row = [f"{name}-s{gen}", name, "crow",
                               "6-14-08", "lake"]
                        gen += 1
                        assert client.execute_prepared(INSERT, row)["rowcount"] == 1
                        view = client.lifecycle_propose(
                            "Sightings", row, confidence=0.8,
                        )
                        with lock:
                            acked[view["belief"]] = []
                        beliefs.append(view["belief"])
                        step[view["belief"]] = 0
                        continue
                    client.lifecycle_transition(b, to, expect=expect)
                    step[b] += 1
                    # Only now — the server responded — is this op acked.
                    with lock:
                        acked[b].append(to)
    except Exception:  # noqa: BLE001 — the SIGKILL severs every connection
        return


@pytest.mark.slow
def test_sigkill_mid_transition_audit_and_statuses_agree(tmp_path):
    data_dir = tmp_path / "data"
    proc, address = _spawn_server(data_dir)
    acked: dict[str, list[str]] = {}
    lock = threading.Lock()
    try:
        threads = [
            threading.Thread(
                target=_curate,
                args=(address, f"curator{i + 1}", acked, lock),
            )
            for i in range(N_CURATORS)
        ]
        for t in threads:
            t.start()
        deadline = time.time() + 60
        while time.time() < deadline:
            with lock:
                total = sum(len(v) for v in acked.values())
            if total >= KILL_AFTER_ACKS:
                break
            time.sleep(0.005)
        assert total >= KILL_AFTER_ACKS, (
            f"workload too slow: only {total} acknowledged transitions"
        )
        _kill(proc)  # SIGKILL mid-transition stream: no flush, no goodbye
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads), "curators hung"
    finally:
        _kill(proc)

    db = BeliefDBMS(
        experiment_schema(), strict=False,
        durability=DurabilityManager(str(data_dir)),
    )
    try:
        assert db.durability.last_recovery.replay.lifecycle_ops > 0
        audit = db.audit_log()
        assert [e["seq"] for e in audit] == list(range(1, len(audit) + 1)), (
            "audit history is not linear after recovery"
        )

        # Every recovered history is a legal walk, and the live status is
        # exactly where the history ends.
        tracked = {v["belief"] for v in db.lifecycle_list()}
        for belief in tracked:
            events = db.audit_log(belief=belief)
            assert events[0]["action"] == "propose"
            status = PROPOSED
            for event in events[1:]:
                assert event["from"] == status
                assert event["to"] in TRANSITIONS[status], (
                    f"illegal {status} -> {event['to']} in recovered audit"
                )
                status = event["to"]
            assert db.lifecycle_get(belief)["status"] == status, (
                f"status of {belief} disagrees with its audit history"
            )

        # Every acknowledged transition survived, in order; at most one
        # applied-but-unacked op may trail the acked prefix (its response
        # never reached the client).
        for belief, acked_tos in acked.items():
            # The acked dict entry was created when the propose response
            # arrived, so the record itself is an acknowledged write.
            assert db.lifecycle_get(belief) is not None, (
                f"acknowledged propose of {belief} lost after recovery"
            )
            recovered_tos = [
                e["to"] for e in db.audit_log(belief=belief)
                if e["action"] == "transition"
            ]
            assert recovered_tos[: len(acked_tos)] == acked_tos, (
                f"acknowledged transitions lost on {belief}"
            )
            assert len(recovered_tos) <= len(acked_tos) + 1, (
                f"phantom transitions on {belief}"
            )
        db.store.check_invariants()
    finally:
        db.close()
