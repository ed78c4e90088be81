"""Worker-fleet supervision: spawn, health-check, and restart belief shards.

A shard worker is a complete, unmodified belief server — the threaded or
asyncio core over its own :class:`~repro.bdms.bdms.BeliefDBMS`, optionally
with its own WAL/durability stack on a private data directory. The
coordinator owns the fleet:

* it spawns one worker per shard (in-process :class:`ThreadWorker` for
  tests and single-machine serving, or :class:`ProcessWorker` — a real
  ``python -m repro serve`` subprocess — for crash isolation);
* it registers each worker's address in a :class:`ShardDirectory` that the
  router consults per request;
* a health thread pings every worker; a worker that dies (process exit,
  SIGKILL) or fails consecutive pings is restarted **on the same data
  directory**, so WAL recovery replays every acknowledged write;
* while a shard is down, the directory answers :class:`ShardUnavailableError`
  for it — the router turns that into a typed error instead of hanging.

Restarts bump the directory *epoch* for the shard, which is how the router
knows to throw away cached connections to the old incarnation.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, IO

from repro.errors import BeliefDBError, ShardUnavailableError
from repro.obs.clock import monotonic_s
from repro.obs.metrics import MetricsRegistry
from repro.server.client import BeliefClient

#: Matches the address line both server cores print on startup.
_ADDRESS_RE = re.compile(r"listening on ([\d.]+):(\d+)")


@dataclass(frozen=True)
class WorkerSpec:
    """Everything needed to (re)build one shard worker from scratch.

    Mirrors the ``repro serve`` flag surface — a :class:`ProcessWorker`
    literally turns this into a command line, and a :class:`ThreadWorker`
    performs the same construction in-process. Frozen so a restart always
    rebuilds an identical worker.
    """

    schema: str = "sightings"
    backend: str = "engine"
    use_async: bool = False
    data_dir: str | None = None
    wal_sync: str = "always"
    checkpoint_interval: float | None = None
    max_inflight: int = 32
    max_sessions: int | None = None
    max_inflight_requests: int | None = None
    slow_op_ms: float | None = None
    max_frame_bytes: int | None = None
    wire: str = "auto"


class ThreadWorker:
    """One shard served in-process: a server core on a private BDMS.

    The cheap fleet unit — no fork/exec, startup in milliseconds — used by
    the default ``repro serve --shards N`` deployment and by most tests.
    ``kill()`` abandons the database *without* a shutdown checkpoint, which
    is as close to SIGKILL as an in-process worker can get: recovery then
    genuinely replays the WAL.
    """

    kind = "thread"

    def __init__(self, shard_id: int, spec: WorkerSpec) -> None:
        self.shard_id = shard_id
        self.spec = spec
        self._server: Any = None
        self._db: Any = None

    @property
    def pid(self) -> int | None:
        return None  # in-process: no pid of its own

    def start(self) -> tuple[str, int]:
        from repro.bdms.bdms import BeliefDBMS
        from repro.core.schema import experiment_schema, sightings_schema

        spec = self.spec
        schema = (
            experiment_schema() if spec.schema == "experiment"
            else sightings_schema()
        )
        durability = None
        if spec.data_dir is not None:
            from repro.durability import DurabilityManager

            durability = DurabilityManager(spec.data_dir, sync=spec.wal_sync)
        self._db = BeliefDBMS(
            schema, backend=spec.backend, strict=False, durability=durability
        )
        admission = {
            "max_sessions": spec.max_sessions,
            "max_inflight_requests": spec.max_inflight_requests,
            "max_frame_bytes": spec.max_frame_bytes,
            "wire": spec.wire,
        }
        checkpoint = (
            spec.checkpoint_interval if durability is not None else None
        )
        if spec.slow_op_ms is not None:
            admission["slow_op_ms"] = spec.slow_op_ms
        if spec.use_async:
            from repro.server.async_server import AsyncBeliefServer

            self._server = AsyncBeliefServer(
                self._db, port=0, checkpoint_interval=checkpoint,
                max_inflight=spec.max_inflight, **admission,
            )
        else:
            from repro.server.server import BeliefServer

            self._server = BeliefServer(
                self._db, port=0, checkpoint_interval=checkpoint, **admission,
            )
        self._server.start()
        assert self._server.address is not None
        return self._server.address

    def alive(self) -> bool:
        return self._server is not None and self._server.running

    def stop(self) -> None:
        """Graceful shutdown: stop serving, checkpoint, close the store."""
        if self._server is not None:
            self._server.stop()
            self._server = None
        if self._db is not None:
            if self._db.durability is not None:
                try:
                    self._db.checkpoint()
                except BeliefDBError:
                    pass  # recovery will replay the WAL instead
            self._db.close()
            self._db = None

    def kill(self) -> None:
        """Crash simulation: drop the server without checkpoint/close."""
        if self._server is not None:
            self._server.stop()
            self._server = None
        db, self._db = self._db, None  # abandoned; WAL holds the truth
        if db is not None and db.durability is not None:
            try:
                # Crash-equivalent by design (no checkpoint) — but the
                # next in-process incarnation needs the directory lock.
                db.durability.close()
            except Exception:  # noqa: BLE001 — already "dead"
                pass


class ProcessWorker:
    """One shard as a real ``python -m repro serve`` subprocess.

    Full crash isolation: the failover test SIGKILLs this and watches the
    coordinator resurrect it with zero acknowledged writes lost. Startup
    parses the server's ``listening on host:port`` line, then a daemon
    thread keeps draining stdout so the child never blocks on a full pipe.
    """

    kind = "process"
    start_timeout = 30.0

    def __init__(self, shard_id: int, spec: WorkerSpec) -> None:
        self.shard_id = shard_id
        self.spec = spec
        self._proc: subprocess.Popen[str] | None = None

    @property
    def pid(self) -> int | None:
        return self._proc.pid if self._proc is not None else None

    def _command(self) -> list[str]:
        spec = self.spec
        cmd = [
            sys.executable, "-u", "-m", "repro", "serve",
            "--port", "0",
            "--schema", spec.schema,
            "--backend", spec.backend,
        ]
        if spec.data_dir is not None:
            cmd += [
                "--data-dir", spec.data_dir,
                "--wal-sync", spec.wal_sync,
            ]
            if spec.checkpoint_interval is not None:
                cmd += ["--checkpoint-interval", str(spec.checkpoint_interval)]
        if spec.use_async:
            cmd += ["--async", "--max-inflight", str(spec.max_inflight)]
        if spec.max_sessions is not None:
            cmd += ["--max-sessions", str(spec.max_sessions)]
        if spec.max_inflight_requests is not None:
            cmd += ["--max-inflight-requests", str(spec.max_inflight_requests)]
        if spec.slow_op_ms is not None:
            cmd += ["--slow-op-ms", str(spec.slow_op_ms)]
        if spec.max_frame_bytes is not None:
            cmd += ["--max-frame-bytes", str(spec.max_frame_bytes)]
        if spec.wire != "auto":
            cmd += ["--wire", spec.wire]
        return cmd

    @staticmethod
    def _child_env() -> dict[str, str]:
        """The child must import :mod:`repro` the same way we did — in a
        source checkout that means putting our package root on PYTHONPATH
        (an installed package inherits it for free)."""
        env = dict(os.environ)
        package_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                package_root + (os.pathsep + existing if existing else "")
            )
        return env

    def start(self) -> tuple[str, int]:
        proc = subprocess.Popen(
            self._command(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=self._child_env(),
        )
        self._proc = proc
        assert proc.stdout is not None
        deadline = monotonic_s() + self.start_timeout
        address: tuple[str, int] | None = None
        while monotonic_s() < deadline:
            line = proc.stdout.readline()
            if not line:
                break  # child exited before announcing an address
            match = _ADDRESS_RE.search(line)
            if match:
                address = (match.group(1), int(match.group(2)))
                break
        if address is None:
            self.kill()
            raise BeliefDBError(
                f"shard {self.shard_id} worker failed to start "
                f"(no address line within {self.start_timeout:.0f}s)"
            )
        threading.Thread(
            target=self._drain, args=(proc.stdout,),
            name=f"shard-{self.shard_id}-stdout", daemon=True,
        ).start()
        return address

    @staticmethod
    def _drain(stream: IO[str]) -> None:
        for _ in stream:
            pass

    def alive(self) -> bool:
        return self._proc is not None and self._proc.poll() is None

    def stop(self) -> None:
        if self._proc is None:
            return
        self._proc.terminate()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait(timeout=10)
        self._proc = None

    def kill(self) -> None:
        """SIGKILL — the real thing; no checkpoint, no WAL flush beyond
        what each acknowledged write already fsynced."""
        if self._proc is None:
            return
        self._proc.kill()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
        self._proc = None


class ShardDirectory:
    """Thread-safe shard → (address, health, epoch) registry.

    The router does one :meth:`lookup` per routed request; the coordinator
    is the only writer. The *epoch* increments on every (re)registration,
    so a router holding a client built at epoch 2 notices the shard now at
    epoch 3 and reconnects instead of writing into a dead socket.
    """

    def __init__(self, n_shards: int) -> None:
        self.n_shards = n_shards
        self._lock = threading.Lock()
        self._addresses: dict[int, tuple[str, int]] = {}
        self._healthy: dict[int, bool] = {i: False for i in range(n_shards)}
        self._epochs: dict[int, int] = {i: 0 for i in range(n_shards)}

    def register(self, shard: int, address: tuple[str, int]) -> None:
        with self._lock:
            self._addresses[shard] = address
            self._healthy[shard] = True
            self._epochs[shard] += 1

    def mark_unhealthy(self, shard: int) -> None:
        with self._lock:
            self._healthy[shard] = False

    def lookup(self, shard: int) -> tuple[tuple[str, int], int]:
        """The live address and epoch — or a typed refusal, never a hang."""
        with self._lock:
            if not self._healthy.get(shard, False):
                raise ShardUnavailableError(
                    f"shard {shard} is unavailable (worker down or "
                    "restarting); the request was not executed and is safe "
                    "to retry"
                )
            return self._addresses[shard], self._epochs[shard]

    def epoch(self, shard: int) -> int:
        with self._lock:
            return self._epochs[shard]

    def healthy(self, shard: int) -> bool:
        with self._lock:
            return self._healthy.get(shard, False)

    def healthy_shards(self) -> list[int]:
        with self._lock:
            return [i for i in range(self.n_shards) if self._healthy[i]]

    def snapshot(self) -> list[dict[str, Any]]:
        with self._lock:
            return [
                {
                    "shard": i,
                    "address": list(self._addresses.get(i, ())) or None,
                    "healthy": self._healthy[i],
                    "epoch": self._epochs[i],
                }
                for i in range(self.n_shards)
            ]


class Coordinator:
    """Spawns the worker fleet and keeps it alive.

    Health protocol: every ``ping_interval`` seconds each worker is checked
    — first that it is still *there* (thread running / process not exited),
    then that it answers a wire ``ping`` (the admission-exempt op, so a
    saturated worker still passes). A dead worker restarts immediately;
    ``ping_failures`` consecutive unanswered pings also trigger a restart.
    Restarting reuses the worker's own data directory, so the new
    incarnation recovers from snapshot + WAL before serving.
    """

    def __init__(
        self,
        n_shards: int,
        spec: WorkerSpec | None = None,
        worker_kind: str = "thread",
        data_dir: str | None = None,
        ping_interval: float = 0.25,
        ping_timeout: float = 2.0,
        ping_failures: int = 2,
        load_interval: float = 2.0,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if n_shards < 1:
            raise BeliefDBError("a shard fleet needs at least one worker")
        if worker_kind not in ("thread", "process"):
            raise BeliefDBError(f"unknown worker kind {worker_kind!r}")
        base = spec if spec is not None else WorkerSpec()
        self.n_shards = n_shards
        self.worker_kind = worker_kind
        self.ping_interval = ping_interval
        self.ping_timeout = ping_timeout
        self.ping_failures = ping_failures
        self.load_interval = load_interval
        self.directory = ShardDirectory(n_shards)
        self.workers: list[ThreadWorker | ProcessWorker] = []
        worker_cls = ThreadWorker if worker_kind == "thread" else ProcessWorker
        for shard in range(n_shards):
            shard_spec = base
            if data_dir is not None:
                shard_spec = replace(
                    base,
                    data_dir=str(Path(data_dir) / f"shard-{shard:02d}"),
                )
            self.workers.append(worker_cls(shard, shard_spec))
        self._restarts = {i: 0 for i in range(n_shards)}
        self._ping_misses = {i: 0 for i in range(n_shards)}
        self._load: dict[int, float] = {i: 0.0 for i in range(n_shards)}
        self._clients: dict[int, BeliefClient] = {}
        self._stopping = threading.Event()
        self._health_thread: threading.Thread | None = None
        self._lock = threading.Lock()
        #: Held while a worker is killed or restarted. The health thread's
        #: restart and a deliberate :meth:`kill_worker` must not interleave:
        #: a kill that lands inside a restart can orphan the new incarnation,
        #: which keeps the data directory locked against every later restart.
        self._lifecycle = threading.Lock()
        self.metrics = registry if registry is not None else MetricsRegistry()
        up = self.metrics.gauge(
            "beliefdb_shard_up",
            "1 when the shard's worker is registered and answering pings.",
            labels=("shard",),
        )
        load = self.metrics.gauge(
            "beliefdb_shard_load",
            "Wire ops served by the shard so far (scraped from the worker).",
            labels=("shard",),
        )
        self._restart_counter = self.metrics.counter(
            "beliefdb_shard_restarts_total",
            "Times the coordinator restarted a crashed/unresponsive worker.",
            labels=("shard",),
        )
        for shard in range(n_shards):
            up.labels(shard=str(shard)).set_function(
                lambda s=shard: 1.0 if self.directory.healthy(s) else 0.0
            )
            load.labels(shard=str(shard)).set_function(
                lambda s=shard: self._load[s]
            )

    # ------------------------------------------------------------- lifecycle

    def start(self) -> "Coordinator":
        for worker in self.workers:
            address = worker.start()
            self.directory.register(worker.shard_id, address)
        self._stopping.clear()
        self._health_thread = threading.Thread(
            target=self._health_loop, name="shard-coordinator-health",
            daemon=True,
        )
        self._health_thread.start()
        return self

    def stop(self) -> None:
        self._stopping.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=10)
            self._health_thread = None
        with self._lock:
            clients, self._clients = self._clients, {}
        for client in clients.values():
            try:
                client.close()
            except Exception:  # noqa: BLE001 — shutdown best-effort
                pass
        for worker in self.workers:
            try:
                worker.stop()
            except Exception:  # noqa: BLE001 — keep stopping the rest
                pass

    def __enter__(self) -> "Coordinator":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ----------------------------------------------------------------- health

    def _client(self, shard: int) -> BeliefClient:
        """The cached health-check client for one shard (rebuilt per epoch)."""
        with self._lock:
            client = self._clients.get(shard)
        if client is not None:
            return client
        address, _ = self.directory.lookup(shard)
        client = BeliefClient(
            *address, connect_retries=3, retry_delay=0.05,
            timeout=self.ping_timeout, auto_reconnect=False,
        )
        with self._lock:
            self._clients[shard] = client
        return client

    def _drop_client(self, shard: int) -> None:
        with self._lock:
            client = self._clients.pop(shard, None)
        if client is not None:
            try:
                client.close()
            except Exception:  # noqa: BLE001
                pass

    def _health_loop(self) -> None:
        last_load_scrape = 0.0
        while not self._stopping.wait(self.ping_interval):
            scrape_load = (
                monotonic_s() - last_load_scrape >= self.load_interval
            )
            if scrape_load:
                last_load_scrape = monotonic_s()
            for worker in self.workers:
                if self._stopping.is_set():
                    return
                shard = worker.shard_id
                if not worker.alive():
                    self._restart(worker)
                    continue
                try:
                    client = self._client(shard)
                    client.ping()
                    if scrape_load:
                        self._load[shard] = self._sum_ops(client.metrics())
                except ShardUnavailableError:
                    # Lost a race with our own restart bookkeeping; the
                    # next tick sees the re-registered address.
                    continue
                except Exception:  # noqa: BLE001 — any failure is a miss
                    self._drop_client(shard)
                    self._ping_misses[shard] += 1
                    if self._ping_misses[shard] >= self.ping_failures:
                        self._restart(worker)
                else:
                    self._ping_misses[shard] = 0

    @staticmethod
    def _sum_ops(metrics_payload: dict[str, Any]) -> float:
        for family in metrics_payload.get("families", ()):
            if family.get("name") == "beliefdb_ops_total":
                return float(sum(
                    sample.get("value", 0.0)
                    for sample in family.get("samples", ())
                ))
        return 0.0

    def _restart(self, worker: "ThreadWorker | ProcessWorker") -> None:
        """Bring a dead/unresponsive worker back on its own data dir."""
        shard = worker.shard_id
        with self._lifecycle:
            self.directory.mark_unhealthy(shard)
            self._drop_client(shard)
            try:
                worker.kill()  # ensure the old incarnation is fully gone
            except Exception:  # noqa: BLE001
                pass
            try:
                address = worker.start()
            except Exception:  # noqa: BLE001 — stays unhealthy; retried next tick
                return
            self._ping_misses[shard] = 0
            self._restarts[shard] += 1
            self._restart_counter.labels(shard=str(shard)).inc()
            self.directory.register(shard, address)

    # ----------------------------------------------------------------- status

    def restarts(self, shard: int) -> int:
        return self._restarts[shard]

    def kill_worker(self, shard: int) -> None:
        """Crash one worker on purpose (failover tests; SIGKILL for
        process workers). The health loop notices and restarts it."""
        with self._lifecycle:
            self.directory.mark_unhealthy(shard)
            self._drop_client(shard)
            self.workers[shard].kill()

    def wait_healthy(self, timeout: float = 30.0) -> bool:
        """Block until every shard is registered healthy (or timeout)."""
        deadline = monotonic_s() + timeout
        while monotonic_s() < deadline:
            if len(self.directory.healthy_shards()) == self.n_shards:
                return True
            if self._stopping.wait(0.05):
                return False
        return False

    def status(self) -> dict[str, Any]:
        """The ``shard_status`` wire payload: one row per shard."""
        shards = []
        for entry in self.directory.snapshot():
            shard = entry["shard"]
            worker = self.workers[shard]
            entry.update(
                kind=worker.kind,
                pid=worker.pid,
                restarts=self._restarts[shard],
                ops_total=self._load[shard],
            )
            shards.append(entry)
        return {
            "n_shards": self.n_shards,
            "worker_kind": self.worker_kind,
            "shards": shards,
        }
