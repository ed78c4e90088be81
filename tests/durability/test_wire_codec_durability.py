"""The wire codec must be invisible to durability: WAL bytes and recovery.

Two regressions pin the layering rule stated in `docs/wire-protocol.md` —
the binary codec lives strictly between socket and dispatch, and the WAL
stays length-prefixed JSON no matter what the transport negotiated:

* the *same serial workload* driven over a JSON session and over a binary
  session produces **byte-identical** WAL segments;
* a server SIGKILLed mid-binary-batch (no flush, no goodbye) recovers
  every acknowledged write, and its crash-truncated WAL is still readable
  by the ordinary JSON record scanner.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.durability import DurabilityManager, list_segments, scan_segment
from repro.server import BeliefClient, BeliefServer

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

ROWS = [
    [f"s{i:03d}", "Carol", species, "6-14-08", "Lake Forest"]
    for i, species in enumerate(
        ["bald eagle", "fish eagle", "crow", "raven", "loon", "osprey"] * 4
    )
]


def _wal_bytes(data_dir: Path) -> bytes:
    segments = list_segments(str(data_dir / "wal"))
    assert segments, "workload produced no WAL segments"
    return b"".join(Path(path).read_bytes() for _, path in segments)


def _run_workload(data_dir: Path, wire: str) -> bytes:
    """The reference serial workload over one pinned-codec session."""
    db = BeliefDBMS(
        sightings_schema(), strict=False,
        durability=DurabilityManager(str(data_dir)),
    )
    try:
        with BeliefServer(db, wire="auto") as server:
            with BeliefClient(*server.address, wire=wire) as client:
                client.login("Carol", create=True)
                stmt = client.prepare(
                    "insert into Sightings values (?,?,?,?,?)"
                )
                for row in ROWS[:8]:
                    client.execute_prepared(
                        "insert into Sightings values (?,?,?,?,?)", row
                    )
                client.execute_batch(stmt, ROWS[8:16])
                for row in ROWS[16:20]:
                    client.execute_prepared(stmt, row)
                client.execute_prepared(
                    "insert into not Sightings values (?,?,?,?,?)", ROWS[0]
                )
                client.execute_prepared(
                    "delete from not Sightings values (?,?,?,?,?)", ROWS[0]
                )
                client.begin()
                client.execute_prepared(stmt, ROWS[20])
                client.commit()
                client.begin()
                client.execute_prepared(stmt, ROWS[21])
                client.rollback()
                assert client._codec.name  # negotiation actually ran
    finally:
        db.close()
    return _wal_bytes(data_dir)


def test_wal_bytes_identical_across_codecs(tmp_path):
    json_wal = _run_workload(tmp_path / "json", wire="json")
    binary_wal = _run_workload(tmp_path / "binary", wire="binary")
    assert json_wal == binary_wal
    # And those identical bytes are ordinary JSON WAL records throughout:
    # every segment scans to the end without a decode stop.
    for first_seq, path in list_segments(str(tmp_path / "binary" / "wal")):
        scan = scan_segment(path)
        assert scan.records, f"segment {first_seq} scanned empty"
        assert scan.clean and scan.error is None, scan.error


# ------------------------------------------------- SIGKILL mid-binary-batch


def _spawn_server(data_dir: Path) -> tuple[subprocess.Popen, tuple[str, int]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro", "serve",
            "--port", "0", "--schema", "sightings",
            "--data-dir", str(data_dir), "--wire", "auto",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    address = None
    assert proc.stdout is not None
    for line in proc.stdout:
        match = re.search(r"listening on ([\d.]+):(\d+)", line)
        if match:
            address = (match.group(1), int(match.group(2)))
            break
    if address is None:
        proc.kill()
        proc.wait(timeout=10)
        raise AssertionError("server subprocess never reported its address")
    threading.Thread(target=proc.stdout.read, daemon=True).start()
    return proc, address


def _kill(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=10)


@pytest.mark.slow
def test_sigkill_mid_binary_batch_recovers_acknowledged_writes(tmp_path):
    data_dir = tmp_path / "data"
    proc, address = _spawn_server(data_dir)
    acked: list[list] = []
    stop = threading.Event()

    def batch_worker() -> None:
        """Stream prepared batches over a negotiated-binary session until
        the SIGKILL severs the socket mid-batch."""
        try:
            with BeliefClient(*address, wire="binary") as client:
                client.login("Carol", create=True)
                stmt = client.prepare(
                    "insert into Sightings values (?,?,?,?,?)"
                )
                i = 0
                while not stop.is_set():
                    rows = [
                        [f"b{i:05d}-{j}", "Carol", "crow", "d", "l"]
                        for j in range(4)
                    ]
                    client.execute_batch(stmt, rows)
                    acked.extend(rows)  # response arrived: durable
                    i += 1
        except Exception:  # noqa: BLE001 — the kill severs the connection
            return

    worker = threading.Thread(target=batch_worker)
    worker.start()
    deadline = time.time() + 60
    while time.time() < deadline and len(acked) < 80:
        time.sleep(0.005)
    assert len(acked) >= 80, f"workload too slow: {len(acked)} acked rows"
    _kill(proc)  # mid-batch, no flush
    stop.set()
    worker.join(timeout=30)
    assert not worker.is_alive(), "batch worker hung after the kill"
    acked_now = list(acked)

    # The crash-truncated WAL is plain JSON records — the scanner reads
    # every segment, stopping (at most) at a torn final record.
    segments = list_segments(str(data_dir / "wal"))
    assert segments
    total_records = sum(len(scan_segment(p).records) for _, p in segments)
    assert total_records >= len(acked_now)

    # Restart from the same directory: nothing acknowledged was lost.
    proc2, address2 = _spawn_server(data_dir)
    try:
        with BeliefClient(*address2, wire="binary") as client:
            assert client.stats()["durability"]["last_seq"] > 0
            for row in acked_now:
                assert client.believes(
                    "Sightings", row, path=["Carol"]
                ), f"acknowledged batch row lost: {row}"
    finally:
        _kill(proc2)
