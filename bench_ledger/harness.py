"""Shared plumbing: the result record, work dirs, box facts, the server child.

Everything the benchmark writes lands under ``.ledger_work/`` in the current
directory (the checkout root) and is removed when the run ends.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

import stats

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent
SRC_DIR = REPO_ROOT / "src"
WORK_ROOT = Path(".ledger_work")

#: Stated next to every durable number; the flush policy is never varied.
WAL_SYNC = "always"
CHECKPOINT_INTERVAL_S = 2.0
DEFAULT_SEED = 20090824  # VLDB 2009's opening day


@dataclass
class PassResult:
    """What one measured pass (untraced or traced) of a workload produced."""

    wall_s: float = 0.0
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    #: Latency samples in seconds, by operation name.
    lat: dict[str, list[float]] = field(default_factory=dict)
    setup_s: list[float] = field(default_factory=list)
    #: ``calibrate`` factors of the set-up and the timed phase; 1.0 where
    #: times are reported as measured.
    setup_factor: float = 1.0
    timed_factor: float = 1.0
    rss_mb: float = 0.0
    #: Plain numbers a workload hands to the metric tables by name.
    values: dict[str, float] = field(default_factory=dict)
    #: ``(name, ok, detail)`` — a failed check counts as a failed operation.
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    facts: dict[str, Any] = field(default_factory=dict)

    def sample(self, name: str) -> list[float]:
        return self.lat.setdefault(name, [])

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)


def digest(lines: Iterable[Any]) -> str:
    """sha256 over the canonical JSON of the generated inputs."""
    h = hashlib.sha256()
    for line in lines:
        h.update(json.dumps(line, sort_keys=True, default=str).encode())
        h.update(b"\n")
    return h.hexdigest()


def new_workdir(tag: str) -> Path:
    WORK_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK_ROOT))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()  # only when this was the last run using it
    except OSError:
        pass


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fsync_probe(directory: Path, samples: int = 200) -> dict[str, float]:
    """Latency of a small write + fsync on the data dir's filesystem."""
    path = directory / "fsync.probe"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o600)
    times: list[float] = []
    try:
        for _ in range(samples):
            os.write(fd, b"x" * 128)
            start = stats.now()
            os.fsync(fd)
            times.append(stats.now() - start)
    finally:
        os.close(fd)
        path.unlink()
    summary = stats.summarize(times, 1e6)
    return {"n": samples, "p50_us": summary["p50"],
            f"p{summary['tail_q'] * 100:g}_us": summary["tail"]}


def box_facts(workdir: Path) -> dict[str, Any]:
    """The box, stated next to every number.

    Each workload adds its own load facts to its pass: ``client_threads``,
    ``wal_sync`` and, when served, the ``wire`` codec negotiated.
    """
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_at_start": list(os.getloadavg()),
        "fsync_probe": fsync_probe(workdir),
    }


# ------------------------------------------------------------ server child


class ServerChild:
    """``python -m repro serve`` as a subprocess with its own GIL.

    ``traced`` starts it through ``serve_traced.py``, which installs the
    span wrappers first and writes their summary to ``spans_out`` on a
    clean stop (SIGINT).
    """

    def __init__(
        self,
        data_dir: Path,
        *,
        use_async: bool = False,
        traced: bool = False,
        spans_out: Path | None = None,
    ) -> None:
        serve_args = [
            "serve", "--port", "0", "--schema", "experiment",
            "--data-dir", str(data_dir), "--wal-sync", WAL_SYNC,
            "--checkpoint-interval", str(CHECKPOINT_INTERVAL_S),
            "--wire", "auto",
        ]
        if use_async:
            serve_args.append("--async")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        if traced:
            assert spans_out is not None
            cmd = [sys.executable, str(LEDGER_DIR / "serve_traced.py"),
                   str(spans_out)] + serve_args
        else:
            cmd = [sys.executable, "-m", "repro"] + serve_args
        self.spans_out = spans_out
        self.proc = subprocess.Popen(
            cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        self.port = self._await_listening()

    def _await_listening(self) -> int:
        assert self.proc.stdout is not None
        seen: list[str] = []
        while True:
            line = self.proc.stdout.readline()
            if not line:
                self.proc.wait()
                raise RuntimeError(
                    "server exited before listening:\n" + "".join(seen)
                )
            seen.append(line)
            match = re.search(r"listening on [\d.]+:(\d+)", line)
            if match:
                return int(match.group(1))

    def peak_rss_mb(self) -> float:
        """VmHWM of the live child (the process holding the store)."""
        try:
            text = Path(f"/proc/{self.proc.pid}/status").read_text()
        except OSError:
            return 0.0
        match = re.search(r"VmHWM:\s+(\d+) kB", text)
        return int(match.group(1)) / 1024.0 if match else 0.0

    def kill(self) -> None:
        """SIGKILL: nothing is flushed that was not already durable."""
        self._end(signal.SIGKILL)

    def stop(self) -> None:
        """SIGINT: a clean shutdown (final checkpoint, span summary written)."""
        self._end(signal.SIGINT)

    def _end(self, sig: int) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def span_report(self) -> dict[str, Any]:
        if self.spans_out is None or not self.spans_out.exists():
            return {}
        return json.loads(self.spans_out.read_text())


# ------------------------------------------------------- metrics-op helpers


def family(metrics: dict[str, Any], name: str) -> list[dict[str, Any]]:
    for fam in metrics.get("families", []):
        if fam["name"] == name:
            return fam["samples"]
    return []


def hist(metrics: dict[str, Any], name: str, **labels: str) -> tuple[float, float]:
    """``(count, sum_seconds)`` of one histogram child (zeros when absent)."""
    count = total = 0.0
    for sample in family(metrics, name):
        if all(sample["labels"].get(k) == v for k, v in labels.items()):
            count += sample["count"]
            total += sample["sum"]
    return count, total


def counter(metrics: dict[str, Any], name: str, **labels: str) -> float:
    return sum(
        sample["value"] for sample in family(metrics, name)
        if all(sample["labels"].get(k) == v for k, v in labels.items())
    )


def hist_delta_mean(
    before: dict[str, Any], after: dict[str, Any], name: str, **labels: str
) -> tuple[float, float]:
    """``(count, mean_seconds)`` of what a histogram saw between two scrapes."""
    c0, s0 = hist(before, name, **labels)
    c1, s1 = hist(after, name, **labels)
    n = c1 - c0
    return n, ((s1 - s0) / n if n else 0.0)
