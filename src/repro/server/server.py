"""A threaded socket server multiplexing many clients over one shared BDMS.

Concurrency model
-----------------
:class:`~repro.bdms.bdms.BeliefDBMS` is not internally synchronized, so the
server guards it with a writer-preference :class:`ReadWriteLock`:

* *reads* (``select``, ``query``, ``believes``, ``world``, ``stats``, ...)
  evaluate against a pinned MVCC version and take no lock at all; the
  remaining session/catalog reads share the lock;
* *writes* (``insert``, ``delete``, ``update``, ``add_user``) are exclusive,
  which makes every update atomic and the whole history linearizable: the
  order in which writers acquire the lock *is* the serial order (the op log
  records it, and tests replay it to check equivalence);
* *transaction commits* are writes: the whole staged group of a session's
  transaction applies under ONE exclusive acquisition (and one WAL fsync),
  so readers never observe a partial transaction. ``begin``/``rollback``
  and in-transaction staging only touch the per-session buffer and ride
  the read side.

Wire behavior
-------------
Each connection is served by its own daemon thread running a frame loop.
Well-formed requests always get a response — semantic failures (unknown op,
rejected update, parse error) travel back as error frames and the connection
survives. Protocol violations (garbage bytes, oversized frames) kill the
connection: after a framing error the stream cannot be trusted.
"""

from __future__ import annotations

import socket
import threading
import time
from contextlib import nullcontext
from typing import Any, Callable, Sequence

from repro.bdms.bdms import BeliefDBMS, PreparedStatement, execute_entry
from repro.core.paths import format_path
from repro.errors import (
    BeliefDBError,
    FrameTooLargeError,
    ServerOverloadedError,
    TransactionError,
)
from repro.obs.clock import monotonic_s
from repro.obs.trace import DEFAULT_CAPACITY, DEFAULT_THRESHOLD_MS, SlowOpLog
from repro.server import binproto, protocol
from repro.server.protocol import ProtocolError, Request, Response
from repro.server.session import ClientSession

DEFAULT_PORT = 5433

#: Rows sent in the first ``execute_prepared`` response / each ``fetch`` page
#: unless the client asks for a different ``max_rows`` / ``n``.
DEFAULT_PAGE_ROWS = 512


class ReadWriteLock:
    """A writer-preference readers-writer lock.

    Any number of readers may hold the lock together; writers are exclusive.
    Waiting writers block *new* readers, so a steady stream of queries cannot
    starve updates.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0
        # Per-mode wait/hold histogram children; None until bind_metrics(),
        # which keeps the unbound lock at one attribute check per acquire.
        self._wait_timers: dict[str, Any] | None = None
        self._hold_timers: dict[str, Any] | None = None

    def bind_metrics(self, registry: Any) -> None:
        """Start observing wait and hold times on ``registry``.

        Wait time is how long an acquirer queued before getting the lock
        (contention); hold time is how long it then kept it (the reason
        everyone else waited). Both are labelled ``mode="read"|"write"``.
        """
        wait = registry.histogram(
            "beliefdb_lock_wait_seconds",
            "Time spent waiting to acquire the database readers-writer lock.",
            labels=("mode",),
        )
        hold = registry.histogram(
            "beliefdb_lock_hold_seconds",
            "Time the database readers-writer lock was held per acquisition.",
            labels=("mode",),
        )
        self._wait_timers = {m: wait.labels(mode=m) for m in ("read", "write")}
        self._hold_timers = {m: hold.labels(mode=m) for m in ("read", "write")}

    def acquire_read(self) -> None:
        timers = self._wait_timers
        start = monotonic_s() if timers is not None else 0.0
        with self._condition:
            while self._writer or self._writers_waiting:
                self._condition.wait()
            self._readers += 1
        if timers is not None:
            timers["read"].observe(monotonic_s() - start)

    def release_read(self) -> None:
        with self._condition:
            self._readers -= 1
            if not self._readers:
                self._condition.notify_all()

    def acquire_write(self) -> None:
        timers = self._wait_timers
        start = monotonic_s() if timers is not None else 0.0
        with self._condition:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._condition.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True
        if timers is not None:
            timers["write"].observe(monotonic_s() - start)

    def release_write(self) -> None:
        with self._condition:
            self._writer = False
            self._condition.notify_all()

    class _Guard:
        __slots__ = ("_acquire", "_release", "_timer", "_start")

        def __init__(
            self,
            acquire: Callable[[], None],
            release: Callable[[], None],
            timer: Any = None,
        ):
            self._acquire, self._release = acquire, release
            self._timer = timer
            self._start = 0.0

        def __enter__(self) -> None:
            self._acquire()
            if self._timer is not None:
                self._start = monotonic_s()

        def __exit__(self, *exc_info: object) -> None:
            if self._timer is None:
                self._release()
                return
            elapsed = monotonic_s() - self._start
            self._release()
            self._timer.observe(elapsed)

    def read(self) -> "ReadWriteLock._Guard":
        timers = self._hold_timers
        return self._Guard(
            self.acquire_read, self.release_read,
            None if timers is None else timers["read"],
        )

    def write(self) -> "ReadWriteLock._Guard":
        timers = self._hold_timers
        return self._Guard(
            self.acquire_write, self.release_write,
            None if timers is None else timers["write"],
        )


def _jsonify(value: Any) -> Any:
    """Make query/statement results JSON-serializable (tuples -> lists)."""
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) \
            else list(value)
        return [_jsonify(v) for v in items]
    return value


class BeliefServer:
    """Serve one shared :class:`BeliefDBMS` to many socket clients.

    Parameters
    ----------
    db:
        The shared database. The server takes ownership of synchronization;
        do not mutate ``db`` from other threads while the server runs.
    host / port:
        Bind address. ``port=0`` picks an ephemeral port; the bound address
        is available as :attr:`address` after :meth:`start`.
    record_ops:
        Keep an in-memory log of every accepted write in serial (lock) order,
        for linearizability checks — see :meth:`oplog` and
        :func:`replay_oplog`.
    checkpoint_interval:
        When the shared ``db`` has a durability manager attached, run a
        background thread that checkpoints (snapshot + WAL prune, under the
        exclusive writer lock) every this-many seconds — but only when new
        WAL records have accumulated. None disables the thread.
    max_sessions:
        Admission control on connections: beyond this many concurrently
        active sessions a new connection gets a structured
        ``SERVER_OVERLOADED`` error in reply to its first request and is
        closed, instead of silently piling onto the lock. None (default)
        means unlimited.
    max_inflight_requests:
        Admission control on requests: when this many requests are already
        executing server-wide, further requests are shed immediately with
        ``SERVER_OVERLOADED`` instead of queueing on the database lock —
        bounding latency under overload. ``ping`` and ``metrics`` are
        exempt so health checks and scrapes survive. None means unlimited.
    slow_op_ms / slow_op_capacity:
        Threshold and ring-buffer size of the slow-op trace log (see
        :class:`~repro.obs.trace.SlowOpLog`). ``slow_op_ms=None`` disables
        tracing; ``0`` traces every op.
    """

    #: Ops admission control never sheds: health checks and scrapes must
    #: keep answering under overload (they bypass the database lock, so
    #: admitting them costs nothing). A class attribute so the shard router
    #: can extend the set (it adds ``shard_status``).
    shed_exempt_ops: frozenset = frozenset({"ping", "metrics"})

    def __init__(
        self,
        db: BeliefDBMS,
        host: str = "127.0.0.1",
        port: int = 0,
        record_ops: bool = False,
        checkpoint_interval: float | None = None,
        max_sessions: int | None = None,
        max_inflight_requests: int | None = None,
        slow_op_ms: float | None = DEFAULT_THRESHOLD_MS,
        slow_op_capacity: int = DEFAULT_CAPACITY,
        max_frame_bytes: int | None = None,
        wire: str = "auto",
    ) -> None:
        self.db = db
        self.host = host
        self.port = port
        self.wire = binproto.check_wire_mode(wire)
        self.max_frame_bytes = (
            protocol.MAX_FRAME_BYTES if max_frame_bytes is None
            else int(max_frame_bytes)
        )
        #: Estimated bytes one result page may carry: a third of the frame
        #: ceiling, the headroom the size estimate needs (see
        #: :data:`repro.server.client.MAX_BATCH_CHUNK_BYTES`).
        self.page_bytes = self.max_frame_bytes // 3
        self.lock = ReadWriteLock()
        self.record_ops = record_ops
        self.checkpoint_interval = checkpoint_interval
        self.max_sessions = max_sessions
        self.max_inflight_requests = max_inflight_requests
        self._checkpoint_thread: threading.Thread | None = None
        self._oplog: list[dict[str, Any]] = []
        self._oplog_seq = 0
        self.address: tuple[str, int] | None = None
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self._state_lock = threading.Lock()
        self._connections: dict[int, socket.socket] = {}
        self._conn_counter = 0
        self._handler_threads: dict[int, threading.Thread] = {}
        self.stats = {
            "connections_total": 0,
            "connections_active": 0,
            "ops_served": 0,
            "op_errors": 0,
            "protocol_errors": 0,
            "checkpoints": 0,
            "checkpoint_errors": 0,
            "overload_sheds": 0,
        }
        # In-flight accounting has two speeds. With an admission limit the
        # check-and-increment must be atomic across threads, so those
        # requests pay a dedicated lock (dedicated: sharing _state_lock
        # would couple its contention onto every request). Without a limit
        # — the default, and the hot path the overhead budget is measured
        # on — each dispatch thread tracks its own delta in a per-thread
        # shard (GIL-safe, no lock) and readers sum both.
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._inflight_shards: dict[int, list[int]] = {}
        self._started_at: float | None = None
        self.slow_ops = SlowOpLog(
            capacity=slow_op_capacity, threshold_ms=slow_op_ms
        )
        # Adopt the shared database's registry so statement, durability,
        # lock, and wire metrics all land in one process-wide namespace.
        self.metrics = db.metrics
        self.lock.bind_metrics(self.metrics)
        self._op_hist = self.metrics.histogram(
            "beliefdb_op_seconds",
            "Wire operation latency from dispatch start to response built.",
            labels=("op",),
        )
        self._ops_total = self.metrics.counter(
            "beliefdb_ops_total",
            "Wire operations dispatched, by op and outcome.",
            labels=("op", "status"),
        )
        self._shed_counter = self.metrics.counter(
            "beliefdb_overload_sheds_total",
            "Requests/sessions shed by admission control, by reason.",
            labels=("reason",),
        )
        self._conn_counter_metric = self.metrics.counter(
            "beliefdb_connections_total",
            "Connections ever accepted.",
        )
        self._wire_negotiations = self.metrics.counter(
            "beliefdb_wire_negotiations_total",
            "Completed hello exchanges, by the codec the server chose.",
            labels=("codec",),
        )
        self.metrics.gauge(
            "beliefdb_sessions_active",
            "Currently connected client sessions.",
        ).set_function(lambda: self.stats["connections_active"])
        self.metrics.gauge(
            "beliefdb_inflight_requests",
            "Requests currently executing (admitted, not yet answered).",
        ).set_function(self._inflight_now)
        self.metrics.gauge(
            "beliefdb_uptime_seconds",
            "Seconds since the server started serving (0 when stopped).",
        ).set_function(self._uptime)
        # Hot-path caches: label-child lookups resolved once per key, so a
        # dispatched op costs dict hits instead of labels() lock hops.
        self._op_timers: dict[str, Any] = {}
        self._op_counters: dict[tuple[str, str], Any] = {}

    # ------------------------------------------------------------- lifecycle

    def start(self) -> "BeliefServer":
        if self._listener is not None:
            raise BeliefDBError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        self._listener = listener
        self.address = listener.getsockname()
        self._started_at = monotonic_s()
        self._stopping.clear()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="belief-server-accept", daemon=True
        )
        self._accept_thread.start()
        self._start_checkpoint_thread()
        return self

    def _start_checkpoint_thread(self) -> None:
        """Launch the background checkpoint thread when configured.

        Shared with :class:`~repro.server.async_server.AsyncBeliefServer`:
        the loop body only touches threading primitives (the RW lock and the
        stopping event), so the same thread serves both server cores.
        """
        if self.checkpoint_interval and self.db.durability is not None:
            self._checkpoint_thread = threading.Thread(
                target=self._checkpoint_loop,
                name="belief-server-checkpoint",
                daemon=True,
            )
            self._checkpoint_thread.start()

    def stop(self) -> None:
        """Stop accepting, close every connection, join handler threads."""
        if self._listener is None:
            return
        self._stopping.set()
        try:
            # Wake the accept() call: close() alone does not interrupt a
            # thread already blocked in accept on Linux.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            # Some platforms refuse shutdown on listening sockets; poke the
            # port with a throwaway connection instead.
            if self.address is not None:
                try:
                    socket.create_connection(self.address, timeout=1).close()
                except OSError:
                    pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._state_lock:
            live = list(self._connections.values())
        for conn in live:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        if self._checkpoint_thread is not None:
            self._checkpoint_thread.join(timeout=5)
            self._checkpoint_thread = None
        with self._state_lock:
            live_threads = list(self._handler_threads.values())
        for thread in live_threads:
            thread.join(timeout=5)
        self._listener = None
        self._accept_thread = None
        self._handler_threads.clear()
        self._started_at = None

    def _uptime(self) -> float:
        started = self._started_at
        return monotonic_s() - started if started is not None else 0.0

    def _inflight_now(self) -> int:
        """Requests executing right now: the admission-locked count plus
        every per-thread shard (see the ctor comment on the two speeds)."""
        with self._inflight_lock:
            exact = self._inflight
        return exact + sum(
            shard[0] for shard in list(self._inflight_shards.values())
        )

    def _checkpoint_loop(self) -> None:
        """Periodically snapshot the shared database (durable servers only).

        Runs under the exclusive writer lock so the snapshot observes a
        quiescent, fully-logged state; skips quiet intervals so an idle
        server does not rewrite identical snapshots forever.
        """
        while not self._stopping.wait(self.checkpoint_interval):
            manager = self.db.durability
            if manager is None or manager.closed or manager.failed:
                # A failed-stop manager can never checkpoint again; keep
                # serving reads instead of stalling everyone under the
                # write lock every interval just to fail.
                return
            if not manager.records_since_checkpoint:
                continue
            try:
                with self.lock.write():
                    self.db.checkpoint()
                with self._state_lock:
                    self.stats["checkpoints"] += 1
            except Exception:  # noqa: BLE001 — keep serving; surface in stats
                with self._state_lock:
                    self.stats["checkpoint_errors"] += 1

    def __enter__(self) -> "BeliefServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._listener is not None

    # ----------------------------------------------------------- accept loop

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                conn, peer = self._listener.accept()
            except OSError:
                break  # listener closed by stop()
            with self._state_lock:
                self._conn_counter += 1
                conn_id = self._conn_counter
                self._connections[conn_id] = conn
                self.stats["connections_total"] += 1
                self.stats["connections_active"] += 1
            self._conn_counter_metric.inc()
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn_id, conn, f"{peer[0]}:{peer[1]}"),
                name=f"belief-server-conn-{conn_id}",
                daemon=True,
            )
            with self._state_lock:
                self._handler_threads[conn_id] = thread
            thread.start()

    def _over_session_limit(self) -> bool:
        """Is this (already counted) connection beyond ``max_sessions``?"""
        if self.max_sessions is None:
            return False
        with self._state_lock:
            return self.stats["connections_active"] > self.max_sessions

    def _count_shed(self, reason: str) -> None:
        with self._state_lock:
            self.stats["overload_sheds"] += 1
        self._shed_counter.labels(reason=reason).inc()

    def _overload_error(self, reason: str) -> ServerOverloadedError:
        if reason == "sessions":
            return ServerOverloadedError(
                f"server is at its session limit ({self.max_sessions}); "
                "retry after backing off"
            )
        return ServerOverloadedError(
            f"server is at its in-flight request limit "
            f"({self.max_inflight_requests}); retry after backing off"
        )

    def _refuse_connection(self, conn: socket.socket) -> None:
        """Answer an over-limit connection's first request with
        ``SERVER_OVERLOADED``, then let the caller close it.

        Reading one request first (instead of slamming the socket shut)
        gives the client a structured, typed error to act on; a client that
        never sends simply sees EOF.
        """
        self._count_shed("sessions")
        try:
            payload = protocol.read_frame(conn, self.max_frame_bytes)
            if payload is None:
                return
            request = Request.from_wire(payload)
            protocol.write_frame(conn, Response.failure(
                request.id, self._overload_error("sessions")
            ).to_wire(), self.max_frame_bytes)
        except (ProtocolError, FrameTooLargeError, OSError):
            pass

    def _negotiate_wire(self, request: Request) -> tuple[Response, Any]:
        """Answer a ``hello`` and pick the codec for the rest of the
        connection.

        Returns the response (to be written in the *current* codec — the
        switch happens strictly after that frame) and the codec object
        both sides use from the next frame on. Unknown client offers fall
        through to JSON, so negotiation can only upgrade, never strand.
        """
        params = request.params if isinstance(request.params, dict) else {}
        result = binproto.hello_result(self.wire, params.get("codecs"))
        self._wire_negotiations.labels(codec=result["codec"]).inc()
        return (
            Response.success(request.id, result),
            binproto.codec_for(result["codec"]),
        )

    def _serve_connection(
        self, conn_id: int, conn: socket.socket, peer: str
    ) -> None:
        session = ClientSession(peer)
        # Every connection starts on the JSON floor; a hello may upgrade
        # it. The binary codec instance is per-connection (it owns a
        # reused encode buffer), created at negotiation time.
        codec = binproto.JSON_CODEC
        try:
            if self._over_session_limit():
                self._refuse_connection(conn)
                return  # the finally block closes and un-counts it
            while not self._stopping.is_set():
                try:
                    payload = codec.read(conn, self.max_frame_bytes)
                except (ProtocolError, OSError):
                    with self._state_lock:
                        self.stats["protocol_errors"] += 1
                    break  # fail closed: drop the connection
                if payload is None:
                    break  # clean EOF
                try:
                    request = Request.from_wire(payload)
                except ProtocolError:
                    with self._state_lock:
                        self.stats["protocol_errors"] += 1
                    break
                if request.op == binproto.HELLO_OP:
                    response, next_codec = self._negotiate_wire(request)
                    try:
                        codec.write(
                            conn, response.to_wire(), self.max_frame_bytes
                        )
                    except (ProtocolError, FrameTooLargeError, OSError):
                        break
                    codec = next_codec
                    continue
                response = self._dispatch(session, request)
                try:
                    codec.write(
                        conn, response.to_wire(), self.max_frame_bytes
                    )
                except FrameTooLargeError as exc:
                    # The *response* outgrew the ceiling; substitute a small
                    # typed error frame so the connection survives.
                    try:
                        codec.write(
                            conn,
                            Response.failure(request.id, exc).to_wire(),
                            self.max_frame_bytes,
                        )
                    except (ProtocolError, FrameTooLargeError, OSError):
                        break
                except (ProtocolError, OSError):
                    break
        finally:
            session.abandon_transaction()  # an open txn dies with the session
            try:
                conn.close()
            except OSError:
                pass
            with self._state_lock:
                self._connections.pop(conn_id, None)
                if not self._stopping.is_set():
                    # Self-prune so long-lived servers don't accumulate one
                    # dead Thread per connection; stop() joins the rest.
                    self._handler_threads.pop(conn_id, None)
                self.stats["connections_active"] -= 1

    # -------------------------------------------------------------- dispatch

    def _dispatch(self, session: ClientSession, request: Request) -> Response:
        """Admission control + instrumentation around the op dispatch.

        Both server cores funnel every request through here. The wrapper
        sheds over-limit requests *before* they queue on the database lock
        (bounded latency beats unbounded queueing), times the admitted ones
        on the shared monotonic clock, and feeds the per-op histogram,
        outcome counters, and the slow-op trace log.
        """
        op = request.op
        shard: list[int] | None = None
        if (
            self.max_inflight_requests is not None
            and op not in self.shed_exempt_ops
        ):
            with self._inflight_lock:
                admitted = self._inflight < self.max_inflight_requests
                if admitted:
                    self._inflight += 1
            if not admitted:
                self._count_shed("inflight")
                self._observe_op(op, "shed", None)
                return Response.failure(
                    request.id, self._overload_error("inflight")
                )
        else:
            ident = threading.get_ident()
            shard = self._inflight_shards.get(ident)
            if shard is None:
                shard = self._inflight_shards[ident] = [0]
            shard[0] += 1
        start = monotonic_s()
        try:
            response = self._dispatch_inner(session, request)
        finally:
            if shard is not None:
                shard[0] -= 1
            else:
                with self._inflight_lock:
                    self._inflight -= 1
        elapsed = monotonic_s() - start
        self._observe_op(op, "ok" if response.ok else "error", elapsed)
        elapsed_ms = elapsed * 1000.0
        if self.slow_ops.should_record(elapsed_ms):
            self.slow_ops.record(
                op, elapsed_ms,
                peer=session.peer,
                user=session.user_name,
                request_id=request.id,
            )
        return response

    def _observe_op(
        self, op: str, status: str, elapsed_s: float | None
    ) -> None:
        """Feed one dispatched op into the counters (and histogram when
        it actually executed). Child lookups are cached per key; the
        benign race on the cache dicts just re-resolves the same child."""
        key = (op, status)
        counter = self._op_counters.get(key)
        if counter is None:
            counter = self._ops_total.labels(op=op, status=status)
            self._op_counters[key] = counter
        counter.inc()
        if elapsed_s is None:
            return
        timer = self._op_timers.get(op)
        if timer is None:
            timer = self._op_hist.labels(op=op)
            self._op_timers[op] = timer
        timer.observe(elapsed_s)

    def _dispatch_inner(
        self, session: ClientSession, request: Request
    ) -> Response:
        handler = _HANDLERS.get(request.op)
        if handler is None or request.op not in protocol.OPS:
            with self._state_lock:
                self.stats["op_errors"] += 1
            return Response.failure(
                request.id,
                BeliefDBError(f"unknown operation {request.op!r}"),
            )
        func, kind = handler
        try:
            if request.op in _LOCKLESS_OPS:
                # Served without the database lock: the metrics registry and
                # slow-op log carry their own (leaf) locks, so scrapes stay
                # responsive even when the writer lock is congested.
                result = func(self, session, request.params)
                with self._state_lock:
                    self.stats["ops_served"] += 1
                return Response.success(request.id, result)
            if request.op == "execute_prepared":
                # Resolve + session-rewrite the prepared statement outside the
                # lock (the BDMS statement cache has its own internal lock),
                # then classify read vs write by the statement kind.
                prepared, bind = self._resolve_prepared(session, request.params)
                if prepared.kind != "select" and session.in_transaction:
                    # In-transaction DML stages into the session's write
                    # buffer — no shared state is touched, so staging
                    # runs on the read side and writers are undisturbed.
                    func = BeliefServer._op_stage
                    params: dict[str, Any] = {
                        "prepared": prepared,
                        "param_rows": [bind],
                        "many": False,
                    }
                else:
                    if prepared.kind != "select":
                        kind = "write"
                    params = {
                        "prepared": prepared,
                        "bind": bind,
                        "max_rows": _page_size(request.params, "max_rows"),
                    }
            elif request.op == "execute_batch":
                # DML-only: the whole batch runs under ONE write-lock
                # acquisition and (on durable servers) one WAL batch append —
                # or, inside a transaction, stages as one unit for commit.
                prepared, param_rows = self._resolve_batch(
                    session, request.params
                )
                if session.in_transaction:
                    func = BeliefServer._op_stage
                    params = {
                        "prepared": prepared,
                        "param_rows": param_rows,
                        "many": True,
                    }
                else:
                    kind = "write"
                    params = {"prepared": prepared, "param_rows": param_rows}
            elif (
                request.op in ("insert", "delete")
                and session.in_transaction
            ):
                # The programmatic tuple ops are not transactional; letting
                # them autocommit mid-transaction would silently interleave
                # with the staged group.
                raise TransactionError(
                    f"the {request.op} op is not transactional; use "
                    "execute_prepared inside a transaction"
                )
            else:
                params = request.params
            if kind == "write":
                guard: Any = self.lock.write()
            elif request.op in _PINNED_READ_OPS:
                # MVCC: these reads evaluate against a pinned copy-on-write
                # version of the store (the BDMS pins one per call or the
                # handler pins one explicitly), so they need no lock at all —
                # a scan never blocks a writer and never observes one.
                guard = nullcontext()
            else:
                guard = self.lock.read()
            with guard:
                result = func(self, session, params)
            with self._state_lock:
                self.stats["ops_served"] += 1
            return Response.success(request.id, result)
        except Exception as exc:  # noqa: BLE001 — every op error travels back
            with self._state_lock:
                self.stats["op_errors"] += 1
            return Response.failure(request.id, exc)

    # ---------------------------------------------------------------- op log

    def _record(self, entry: dict[str, Any]) -> None:
        """Append one accepted write to the serial-order log.

        Must be called while holding the write lock — the log order then
        equals the serialization order of the writer lock.
        """
        if not self.record_ops:
            return
        self._oplog_seq += 1
        self._oplog.append({"seq": self._oplog_seq, **entry})

    def oplog(self) -> list[dict[str, Any]]:
        with self.lock.read():
            return [dict(entry) for entry in self._oplog]

    # ------------------------------------------------------------- op bodies

    def _op_ping(self, session: ClientSession, params: dict[str, Any]) -> Any:
        return "pong"

    def _op_login(self, session: ClientSession, params: dict[str, Any]) -> Any:
        user = _require(params, "user")
        create = bool(params.get("create", False))
        store = self.db.store
        try:
            uid = store.resolve_user(user)
        except BeliefDBError:
            if not create or not isinstance(user, str):
                raise
            uid = self.db.add_user(user)
            self._record({"op": "add_user", "name": user, "uid": uid})
        session.login(uid, store.user_name(uid))
        return session.describe()

    def _op_logout(self, session: ClientSession, params: dict[str, Any]) -> Any:
        session.logout()
        return session.describe()

    def _op_whoami(self, session: ClientSession, params: dict[str, Any]) -> Any:
        return session.describe()

    def _op_set_path(self, session: ClientSession, params: dict[str, Any]) -> Any:
        path = _require(params, "path")
        if not isinstance(path, (list, tuple)):
            raise BeliefDBError("set_path expects a list of users")
        resolved = tuple(self.db.store.resolve_user(u) for u in path)
        session.set_path(resolved)
        return session.describe()

    def _op_add_user(self, session: ClientSession, params: dict[str, Any]) -> Any:
        name = params.get("name")
        # An explicit uid pins the assignment — the shard router uses this to
        # replicate one user identically across every worker's registry.
        uid = self.db.add_user(name, uid=params.get("uid"))
        self._record({"op": "add_user", "name": name, "uid": uid})
        return uid

    def _op_users(self, session: ClientSession, params: dict[str, Any]) -> Any:
        return [[uid, name] for uid, name in sorted(self.db.users().items(),
                                                    key=lambda kv: repr(kv[0]))]

    def _op_insert(self, session: ClientSession, params: dict[str, Any]) -> Any:
        path, relation, values, sign = self._statement_params(session, params)
        ok = self.db.insert(path, relation, values, sign)
        self._record({"op": "insert", "path": list(path), "relation": relation,
                      "values": list(values), "sign": sign, "ok": ok})
        return ok

    def _op_delete(self, session: ClientSession, params: dict[str, Any]) -> Any:
        path, relation, values, sign = self._statement_params(session, params)
        ok = self.db.delete(path, relation, values, sign)
        self._record({"op": "delete", "path": list(path), "relation": relation,
                      "values": list(values), "sign": sign, "ok": ok})
        return ok

    def _statement_params(
        self, session: ClientSession, params: dict[str, Any]
    ) -> tuple[tuple[Any, ...], str, list[Any], str]:
        relation = _require(params, "relation")
        values = _require(params, "values")
        if not isinstance(values, (list, tuple)):
            raise BeliefDBError("values must be a list")
        raw_path = params.get("path")
        if raw_path is not None and not isinstance(raw_path, (list, tuple)):
            raise BeliefDBError("path must be a list of users (or null)")
        path = session.effective_path(raw_path)
        resolved = tuple(self.db.store.resolve_user(u) for u in path)
        sign = params.get("sign", "+")
        return resolved, relation, list(values), sign

    # ------------------------------------------------- prepared statements

    def _resolve_prepared(
        self, session: ClientSession, params: dict[str, Any]
    ) -> tuple[PreparedStatement, tuple[Any, ...]]:
        """Resolve an ``execute_prepared`` request to a bindable statement.

        Accepts either a server-side handle from a prior ``prepare`` op
        (``stmt``) or one-shot SQL text (``sql``); both go through the BDMS
        statement cache. The session's default belief path is applied here —
        at execute time, not prepare time — so ``set_path``/``login`` between
        executions of one handle behaves like re-issuing the statement.
        """
        if "stmt" in params:
            prepared = session.statement(params["stmt"])
        elif "sql" in params:
            prepared = _require(params, "sql")
        else:
            raise BeliefDBError("execute_prepared needs 'stmt' or 'sql'")
        bind = params.get("params", [])
        if not isinstance(bind, (list, tuple)):
            raise BeliefDBError("params must be a list")
        return self.db.prepare_for_session(prepared, session), tuple(bind)

    def _op_prepare(self, session: ClientSession, params: dict[str, Any]) -> Any:
        prepared = self.db.prepare(_require(params, "sql"))
        stmt_id = session.register_statement(prepared)
        return {
            "stmt": stmt_id,
            "kind": prepared.kind,
            "param_count": prepared.param_count,
            "columns": list(prepared.columns),
        }

    def _op_close_statement(
        self, session: ClientSession, params: dict[str, Any]
    ) -> Any:
        return {"closed": session.close_statement(_require(params, "stmt"))}

    def _op_execute_prepared(
        self, session: ClientSession, params: dict[str, Any]
    ) -> Any:
        prepared: PreparedStatement = params["prepared"]
        bind: tuple[Any, ...] = params["bind"]
        version = None
        if prepared.kind == "select" and session.in_transaction:
            # Read-your-own-writes: in-transaction selects evaluate against
            # the session's private view (committed snapshot + staged DML).
            version = session.transaction().read_version()
        result = self.db.execute_prepared(prepared, bind, version=version)
        if prepared.kind != "select" and self.record_ops:
            self._record({
                **execute_entry(prepared.sql, bind), "ok": result.rowcount,
            })
        first, cursor_id = session.open_cursor(
            result.rows, params["max_rows"], self.page_bytes
        )
        # Metadata assembled by hand (not result.to_wire()): serializing the
        # full row set just to overwrite it with the first page would be
        # O(total rows) of waste under the db lock.
        return {
            "kind": result.kind,
            "columns": list(result.columns),
            "rowcount": result.rowcount,
            "status": result.status,
            "elapsed_ms": result.elapsed_ms,
            "rows": _jsonify(first),
            "cursor": cursor_id,
            "has_more": cursor_id is not None,
        }

    def _resolve_batch(
        self, session: ClientSession, params: dict[str, Any]
    ) -> tuple[PreparedStatement, list[tuple[Any, ...]]]:
        """Resolve an ``execute_batch`` request: prepared DML + param rows."""
        prepared, _ = self._resolve_prepared(
            session, {k: v for k, v in params.items() if k != "param_rows"}
        )
        if prepared.kind == "select":
            raise BeliefDBError("execute_batch is for DML, not select")
        rows = _require(params, "param_rows")
        if not isinstance(rows, list) or not all(
            isinstance(row, (list, tuple)) for row in rows
        ):
            raise BeliefDBError("param_rows must be a list of lists")
        return prepared, [tuple(row) for row in rows]

    def _op_execute_batch(
        self, session: ClientSession, params: dict[str, Any]
    ) -> Any:
        prepared: PreparedStatement = params["prepared"]
        param_rows: list[tuple[Any, ...]] = params["param_rows"]
        try:
            result = self.db.execute_batch(prepared, param_rows)
        except BeliefDBError as exc:
            # Strict mode stops at the first rejected row, but the applied
            # prefix stays applied (and WAL-logged) — record it so the op
            # log still replays to the same state.
            applied = getattr(exc, "partial_rowcounts", None)
            if applied:
                self._record({
                    "op": "execute_batch",
                    "sql": prepared.sql,
                    "param_rows": _jsonify(param_rows[:len(applied)]),
                    "ok": sum(applied),
                })
            raise
        self._record({
            "op": "execute_batch",
            "sql": prepared.sql,
            "param_rows": _jsonify(param_rows),
            "ok": result.rowcount,
        })
        return self._result_payload(result)

    # --------------------------------------------------------- transactions

    @staticmethod
    def _result_payload(result: Any) -> dict[str, Any]:
        """The structured result envelope for row-less (DML/txn) results:
        the Result's own wire form plus the (empty) paging fields."""
        return {**result.to_wire(), "cursor": None, "has_more": False}

    def _op_begin(self, session: ClientSession, params: dict[str, Any]) -> Any:
        if session.in_transaction:
            # Reject before creating anything, so a double begin cannot
            # leak an orphaned Transaction or skew the begun counter.
            raise TransactionError(
                "a transaction is already open on this session"
            )
        txn = self.db.begin_transaction()
        try:
            session.begin_transaction(txn)
        except TransactionError:
            txn.discard()  # raced a concurrent begin; keep the ledger sane
            raise
        return session.describe()

    def _op_commit(self, session: ClientSession, params: dict[str, Any]) -> Any:
        # Runs under the exclusive write lock: the whole staged group
        # applies in one lock hold (and one WAL fsync), so no reader ever
        # observes a partial transaction. A mid-apply rejection rolls the
        # prefix back inside commit_transaction and raises — the session's
        # transaction is consumed either way.
        txn = session.take_transaction()
        result = self.db.commit_transaction(txn)
        if txn.applied_entries:
            self._record({
                "op": "txn",
                "statements": [
                    {"sql": entry["sql"], "params": entry["params"]}
                    for entry in txn.applied_entries
                ],
                "ok": result.rowcount,
            })
        return self._result_payload(result)

    def _op_rollback(
        self, session: ClientSession, params: dict[str, Any]
    ) -> Any:
        return {"discarded": session.rollback_transaction()}

    def _op_stage(self, session: ClientSession, params: dict[str, Any]) -> Any:
        """Stage in-transaction DML into the session's write buffer.

        Routed here by ``_dispatch`` for ``execute_prepared`` and
        ``execute_batch`` while the session has an open transaction; runs
        under the shared read lock (the buffer is per-session, the store
        untouched).
        """
        prepared: PreparedStatement = params["prepared"]
        txn = session.transaction()
        if params["many"]:
            result = txn.stage_batch(prepared, params["param_rows"])
        else:
            result = txn.stage(prepared, params["param_rows"][0])
        return self._result_payload(result)

    def _op_fetch(self, session: ClientSession, params: dict[str, Any]) -> Any:
        count = _page_size(params, "n")
        rows, has_more = session.fetch_rows(
            _require(params, "cursor"), count, self.page_bytes
        )
        return {"rows": _jsonify(rows), "has_more": has_more}

    def _op_close_cursor(
        self, session: ClientSession, params: dict[str, Any]
    ) -> Any:
        return {"closed": session.close_cursor(_require(params, "cursor"))}

    def _op_query(self, session: ClientSession, params: dict[str, Any]) -> Any:
        return _jsonify(self.db.query(_require(params, "bcq")))

    def _op_believes(self, session: ClientSession, params: dict[str, Any]) -> Any:
        relation = _require(params, "relation")
        values = _require(params, "values")
        path = session.effective_path(params.get("path"))
        sign = params.get("sign", "+")
        return self.db.believes(path, relation, values, sign)

    def _op_world(self, session: ClientSession, params: dict[str, Any]) -> Any:
        path = session.effective_path(params.get("path"))
        with self.db.read_view() as version:
            store = version.store
            resolved = tuple(store.resolve_user(u) for u in path)
            world = store.entailed_world(resolved)
        return {
            "path": _jsonify(resolved),
            "label": format_path(resolved),
            "positives": sorted(str(t) for t in world.positives),
            "negatives": sorted(str(t) for t in world.negatives),
        }

    def _op_worlds(self, session: ClientSession, params: dict[str, Any]) -> Any:
        out = []
        # One pin across the whole iteration: the listing is a consistent
        # cut of a single version, no matter how many commits land mid-scan.
        with self.db.read_view() as version:
            store = version.store
            for path in sorted(store.states(),
                               key=lambda p: (len(p), repr(p))):
                world = store.entailed_world(path)
                out.append({
                    "path": _jsonify(path),
                    "label": format_path(path),
                    "positives": len(world.positives),
                    "negatives": len(world.negatives),
                })
        return out

    def _op_stats(self, session: ClientSession, params: dict[str, Any]) -> Any:
        snapshot = self.db.snapshot_stats()
        with self._state_lock:
            server = dict(self.stats)
        server["inflight_requests"] = self._inflight_now()
        server["sessions_active"] = server["connections_active"]
        server["uptime_seconds"] = round(self._uptime(), 3)
        server["max_sessions"] = self.max_sessions
        server["max_inflight_requests"] = self.max_inflight_requests
        server["slow_ops_recorded"] = self.slow_ops.recorded_total
        snapshot["server"] = server
        return snapshot

    def _op_metrics(self, session: ClientSession, params: dict[str, Any]) -> Any:
        """The full registry + slow-op trace, JSON-plain.

        Dispatched *without* the database lock (see ``_dispatch_inner``) and
        exempt from request shedding, so observability survives overload —
        the one time you need it most.
        """
        return {
            "families": self.metrics.snapshot(),
            "slow_ops": self.slow_ops.snapshot(),
        }

    # ---------------------------------------------------- lifecycle & audit

    def _op_lifecycle(
        self, session: ClientSession, params: dict[str, Any]
    ) -> Any:
        """One curation write: propose / transition / decay_sweep.

        Runs under the exclusive write lock; the op-log entry carries the
        resolved arguments *and* the server-stamped timestamp, so replaying
        the log rebuilds the exact audit history (ids and event order are
        deterministic functions of the record contents).
        """
        if session.in_transaction:
            # Lifecycle transitions are compare-and-swap ops against the
            # live registry; staging them would let a later commit reorder
            # around the compare and hand both racing curators a win.
            raise TransactionError(
                "lifecycle operations are not transactional; "
                "commit or rollback first"
            )
        action = _require(params, "action")
        # Attribution: an explicit actor wins; otherwise the logged-in
        # curator (clients send actor=null, so a plain .get default won't do).
        actor = params.get("actor")
        if actor is None:
            actor = session.user
        ts = time.time()
        if action == "propose":
            raw_path = params.get("path")
            if raw_path is not None and not isinstance(raw_path, (list, tuple)):
                raise BeliefDBError("path must be a list of users (or null)")
            result = self.db.lifecycle_propose(
                session.effective_path(raw_path),
                _require(params, "relation"),
                _require(params, "values"),
                params.get("sign", "+"),
                actor=actor,
                confidence=params.get("confidence", 1.0),
                decay=params.get("decay", "none"),
                derived_from=params.get("derived_from", ()),
                ts=ts,
            )
            self._record({
                "op": "lifecycle", "action": "propose",
                "path": result["path"], "relation": result["relation"],
                "values": result["values"], "sign": result["sign"],
                "actor": result["actor"],
                "confidence": result["confidence"],
                "decay": result["decay"],
                "derived_from": result["derived_from"],
                "ts": ts, "ok": result["belief"],
            })
        elif action == "transition":
            belief = _require(params, "belief")
            to = _require(params, "to")
            expect = params.get("expect")
            reason = params.get("reason")
            result = self.db.lifecycle_transition(
                belief, to, actor=actor, expect=expect, reason=reason, ts=ts,
            )
            self._record({
                "op": "lifecycle", "action": "transition",
                "belief": belief, "to": to, "expect": expect,
                "reason": reason, "actor": result["actor"],
                "ts": ts, "ok": result["status"],
            })
        elif action == "decay_sweep":
            result = self.db.lifecycle_decay_sweep(actor=actor, now=ts)
            self._record({
                "op": "lifecycle", "action": "decay_sweep",
                "actor": (
                    self.db.store.resolve_user(actor)
                    if actor is not None else None
                ),
                "ts": ts, "ok": dict(result),
            })
        else:
            raise BeliefDBError(f"unknown lifecycle action {action!r}")
        return _jsonify(result)

    def _op_audit(self, session: ClientSession, params: dict[str, Any]) -> Any:
        """Lifecycle reads: the audit log, one record, the review queue,
        or a provenance chain. All evaluate against a pinned MVCC version
        (the BDMS pins one per call), so they never queue behind writers."""
        kind = params.get("kind", "log")
        if kind == "log":
            return _jsonify(self.db.audit_log(
                belief=params.get("belief"), limit=params.get("limit"),
            ))
        if kind == "record":
            return _jsonify(self.db.lifecycle_get(_require(params, "belief")))
        if kind == "queue":
            raw_path = params.get("path")
            if raw_path is not None and not isinstance(raw_path, (list, tuple)):
                raise BeliefDBError("path must be a list of users (or null)")
            return _jsonify(self.db.lifecycle_list(
                path=raw_path, status=params.get("status"),
                limit=params.get("limit"),
            ))
        if kind == "provenance":
            return _jsonify(self.db.provenance(_require(params, "belief")))
        raise BeliefDBError(
            f"unknown audit kind {kind!r}; expected log, record, "
            "queue, or provenance"
        )

    def _op_kripke(self, session: ClientSession, params: dict[str, Any]) -> Any:
        return self.db.kripke().describe()

    def _op_describe(self, session: ClientSession, params: dict[str, Any]) -> Any:
        return self.db.describe()


def _require(params: dict[str, Any], key: str) -> Any:
    if key not in params:
        raise BeliefDBError(f"missing required parameter {key!r}")
    return params[key]


def _page_size(params: dict[str, Any], key: str) -> int:
    value = params.get(key, DEFAULT_PAGE_ROWS)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise BeliefDBError(f"{key} must be a positive int, got {value!r}")
    return value


#: op name -> (bound-method extractor, "read" | "write").
_HANDLERS: dict[str, tuple[Callable[..., Any], str]] = {
    "ping": (BeliefServer._op_ping, "read"),
    "login": (BeliefServer._op_login, "write"),
    "logout": (BeliefServer._op_logout, "read"),
    "whoami": (BeliefServer._op_whoami, "read"),
    "set_path": (BeliefServer._op_set_path, "read"),
    "add_user": (BeliefServer._op_add_user, "write"),
    "users": (BeliefServer._op_users, "read"),
    "insert": (BeliefServer._op_insert, "write"),
    "delete": (BeliefServer._op_delete, "write"),
    "prepare": (BeliefServer._op_prepare, "read"),
    # DML is promoted to "write" (or staged, in a transaction) in _dispatch.
    "execute_prepared": (BeliefServer._op_execute_prepared, "read"),
    "execute_batch": (BeliefServer._op_execute_batch, "write"),
    "close_statement": (BeliefServer._op_close_statement, "read"),
    # begin/rollback only touch the per-session buffer (read side); commit
    # applies the whole group under one exclusive write-lock acquisition.
    "begin": (BeliefServer._op_begin, "read"),
    "commit": (BeliefServer._op_commit, "write"),
    "rollback": (BeliefServer._op_rollback, "read"),
    "fetch": (BeliefServer._op_fetch, "read"),
    "close_cursor": (BeliefServer._op_close_cursor, "read"),
    "query": (BeliefServer._op_query, "read"),
    "believes": (BeliefServer._op_believes, "read"),
    "world": (BeliefServer._op_world, "read"),
    "worlds": (BeliefServer._op_worlds, "read"),
    "stats": (BeliefServer._op_stats, "read"),
    "metrics": (BeliefServer._op_metrics, "read"),  # lockless; see _dispatch
    "kripke": (BeliefServer._op_kripke, "read"),
    "describe": (BeliefServer._op_describe, "read"),
    "lifecycle": (BeliefServer._op_lifecycle, "write"),
    "audit": (BeliefServer._op_audit, "read"),  # pinned MVCC read
}

#: Ops served without taking the database lock at all (``ping`` touches no
#: shared state; ``metrics`` reads structures with their own leaf locks).
_LOCKLESS_OPS = frozenset({"ping", "metrics"})

#: Read ops that evaluate against a *pinned MVCC version* and therefore skip
#: the readers-writer lock entirely (see ``_dispatch_inner``): the BDMS pins
#: a copy-on-write snapshot per call (``query``/``believes``/select
#: ``execute_prepared``/``stats``) or the handler pins one
#: explicitly across its whole iteration (``world``/``worlds``). Staging
#: in-transaction DML rides the same ops and only touches the per-session
#: buffer. ``kripke``/``describe`` and the session/catalog ops stay on the
#: shared read lock — they read the live store directly.
_PINNED_READ_OPS = frozenset({
    "execute_prepared", "query", "believes",
    "world", "worlds", "stats", "audit",
})

#: Module-level alias of :attr:`BeliefServer.shed_exempt_ops` (the class
#: attribute is authoritative; the router core overrides it).
_SHED_EXEMPT_OPS = BeliefServer.shed_exempt_ops


def replay_oplog(db: BeliefDBMS, entries: Sequence[dict[str, Any]]) -> None:
    """Re-execute an op log serially against a fresh BDMS.

    Used by the linearizability tests: a concurrent run recorded under the
    writer lock, replayed here in log order, must produce the same database
    *and* the same per-op outcomes.
    """
    for entry in entries:
        op = entry["op"]
        if op == "add_user":
            uid = db.add_user(entry["name"], uid=entry.get("uid"))
            if entry.get("uid") is not None and uid != entry["uid"]:
                raise BeliefDBError(
                    f"replay diverged: add_user gave {uid!r}, log has {entry['uid']!r}"
                )
        elif op in ("insert", "delete"):
            func = db.insert if op == "insert" else db.delete
            try:
                ok = func(entry["path"], entry["relation"], entry["values"],
                          entry["sign"])
            except BeliefDBError:
                ok = False
            if ok != entry["ok"]:
                raise BeliefDBError(
                    f"replay diverged at seq {entry['seq']}: {op} gave {ok!r}, "
                    f"log has {entry['ok']!r}"
                )
        elif op == "execute_batch":
            try:
                result = db.execute_batch(
                    entry["sql"],
                    [tuple(row) for row in entry["param_rows"]],
                ).rowcount
            except BeliefDBError:
                result = False
            if result != entry["ok"]:
                raise BeliefDBError(
                    f"replay diverged at seq {entry['seq']}: execute_batch "
                    f"gave {result!r}, log has {entry['ok']!r}"
                )
        elif op == "lifecycle":
            # The entry *is* the lifecycle WAL record (plus seq/ok); replay
            # feeds it through the same deterministic apply path recovery
            # uses, so ids, statuses, and audit events come out identical.
            try:
                applied = db.apply_lifecycle_record(
                    {k: v for k, v in entry.items() if k not in ("seq", "ok")}
                )
                if entry["action"] == "propose":
                    result = applied["belief"]
                elif entry["action"] == "transition":
                    result = applied["status"]
                else:
                    result = dict(applied)
            except BeliefDBError:
                result = False
            if result != entry["ok"]:
                raise BeliefDBError(
                    f"replay diverged at seq {entry['seq']}: lifecycle "
                    f"{entry['action']} gave {result!r}, log has "
                    f"{entry['ok']!r}"
                )
        elif op in ("execute", "txn"):
            # One statement, or a committed transaction's statements in
            # commit order (serially equivalent: the original applied them
            # under one uninterrupted write-lock hold) — each the
            # template + params entry the WAL carries.
            statements = entry["statements"] if op == "txn" else [entry]
            try:
                result = sum(
                    db.execute_sql(stmt["sql"], tuple(stmt["params"])).rowcount
                    for stmt in statements
                )
            except BeliefDBError:
                result = False
            if result != entry["ok"]:
                raise BeliefDBError(
                    f"replay diverged at seq {entry['seq']}: {op} gave "
                    f"{result!r}, log has {entry['ok']!r}"
                )
        else:
            raise BeliefDBError(f"unknown oplog entry {entry!r}")
