"""A threaded socket server multiplexing many clients over one shared BDMS.

Concurrency model
-----------------
:class:`~repro.bdms.bdms.BeliefDBMS` is not internally synchronized, so the
server guards it with a writer-preference :class:`ReadWriteLock`:

* *reads* (``select``, ``believes``, ``world``, ``stats``, ...)
  evaluate against a pinned MVCC version and take no lock at all; the
  remaining session/catalog reads share the lock;
* *writes* (DML statements, batches, ``add_user``) are exclusive,
  which makes every update atomic and the whole history linearizable: the
  order in which writers acquire the lock *is* the serial order (on a
  durable database the WAL records it, and tests recover from it to check
  equivalence);
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
from collections.abc import Hashable
from contextlib import nullcontext
from typing import Any, Callable

from repro.bdms.bdms import BeliefDBMS, PreparedStatement
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
        bounding latency under overload. Ops whose
        :data:`~repro.server.protocol.OP_TABLE` row says ``shed_exempt``
        (``ping``, ``metrics``) still answer, so health checks and scrapes
        survive. None means unlimited.
    slow_op_ms / slow_op_capacity:
        Threshold and ring-buffer size of the slow-op trace log (see
        :class:`~repro.obs.trace.SlowOpLog`). ``slow_op_ms=None`` disables
        tracing; ``0`` traces every op.
    """

    #: The per-connection state every request is dispatched with (the
    #: shard router serves a subclass that also holds its upstreams).
    session_type = ClientSession

    def __init__(
        self,
        db: BeliefDBMS,
        host: str = "127.0.0.1",
        port: int = 0,
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
        self.checkpoint_interval = checkpoint_interval
        self.max_sessions = max_sessions
        self.max_inflight_requests = max_inflight_requests
        self._checkpoint_thread: threading.Thread | None = None
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
        session = self.session_type(peer)
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
        spec = protocol.OPS.get(op)
        shard: list[int] | None = None
        if self.max_inflight_requests is not None and not (
            # Health checks and scrapes must keep answering under overload
            # (they take no database lock, so admitting them costs nothing).
            spec is not None and spec.shed_exempt
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
            response = self._dispatch_inner(session, request, spec)
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
        self,
        session: ClientSession,
        request: Request,
        spec: protocol.OpSpec | None,
    ) -> Response:
        """Run one request against its op-table row; every op error —
        an unknown op included — travels back as an error response."""
        try:
            if spec is None:
                raise _unknown_operation(request.op)
            result = self._run_op(session, spec, request.params)
        except Exception as exc:  # noqa: BLE001 — every op error travels back
            with self._state_lock:
                self.stats["op_errors"] += 1
            return Response.failure(request.id, exc)
        with self._state_lock:
            self.stats["ops_served"] += 1
        return Response.success(request.id, result)

    def _run_op(
        self, session: ClientSession, spec: protocol.OpSpec,
        params: dict[str, Any],
    ) -> Any:
        """Resolve ``_op_<name>`` and run it under the guard the row's
        ``lock`` column names (the shard router overrides this with its
        routing rules)."""
        handler = getattr(self, f"_op_{spec.name}", None)
        if handler is None:
            raise _unknown_operation(spec.name)
        if not spec.in_txn and session.in_transaction:
            raise protocol.not_transactional(spec.name)
        lock = spec.lock
        if spec.name in ("execute_prepared", "execute_batch"):
            handler, lock, params = self._plan_statement(session, spec, params)
        if lock == "write":
            guard: Any = self.lock.write()
        elif lock == "read":
            guard = self.lock.read()
        else:
            # ``none`` touches no database state (the metrics registry and
            # slow-op log carry their own leaf locks, so scrapes stay
            # responsive when the writer lock is congested); ``pinned``
            # evaluates against a pinned copy-on-write MVCC version (the
            # BDMS pins one per call or the handler pins one explicitly) —
            # a scan never blocks a writer and never observes one.
            guard = nullcontext()
        with guard:
            return handler(session, params)

    def _plan_statement(
        self, session: ClientSession, spec: protocol.OpSpec,
        params: dict[str, Any],
    ) -> tuple[Callable[..., Any], str, dict[str, Any]]:
        """Resolve + session-rewrite an ``execute_prepared`` /
        ``execute_batch`` statement outside the lock (the BDMS statement
        cache has its own internal lock), then pick handler and lock class
        by the statement kind: a select reads a pinned version; DML takes
        ONE write-lock acquisition (a whole batch: one WAL append too) —
        or, inside a transaction, stages into the session's write buffer,
        which touches no shared state and so takes no lock."""
        batch = spec.name == "execute_batch"
        if batch:
            prepared, param_rows = self._resolve_batch(session, params)
        else:
            prepared, bind = self._resolve_prepared(session, params)
            param_rows = [bind]
        if prepared.kind != "select" and session.in_transaction:
            return self._stage, "pinned", {
                "prepared": prepared, "param_rows": param_rows, "many": batch,
            }
        if batch:
            return self._op_execute_batch, "write", {
                "prepared": prepared, "param_rows": param_rows,
            }
        return (
            self._op_execute_prepared,
            spec.lock if prepared.kind == "select" else "write",
            {
                "prepared": prepared, "bind": param_rows[0],
                "max_rows": _page_size(params, "max_rows"),
            },
        )

    # ------------------------------------------------------------- op bodies

    def _op_ping(self, session: ClientSession, params: dict[str, Any]) -> Any:
        return "pong"

    def _resolve_user(
        self, session: ClientSession, user: Any, create: bool
    ) -> tuple[Any, str]:
        """A user reference (name or uid) as ``(uid, name)``; an unknown
        name is registered when ``create`` is set."""
        store = self.db.store
        try:
            uid = store.resolve_user(user)
        except BeliefDBError:
            if not create or not isinstance(user, str):
                raise
            uid = self.db.add_user(user)
        return uid, store.user_name(uid)

    def _describe(self, session: ClientSession) -> dict[str, Any]:
        return session.describe()

    def _op_login(self, session: ClientSession, params: dict[str, Any]) -> Any:
        create = bool(params.get("create", False))
        session.login(*self._resolve_user(
            session, _require(params, "user"), create
        ))
        return self._describe(session)

    def _op_logout(self, session: ClientSession, params: dict[str, Any]) -> Any:
        session.logout()
        return self._describe(session)

    def _op_whoami(self, session: ClientSession, params: dict[str, Any]) -> Any:
        return self._describe(session)

    def _op_set_path(self, session: ClientSession, params: dict[str, Any]) -> Any:
        path = _require(params, "path")
        if not isinstance(path, (list, tuple)) or not all(
            isinstance(user, Hashable) for user in path
        ):
            raise BeliefDBError("set_path expects a list of users")
        session.set_path(tuple(
            self._resolve_user(session, user, create=False)[0]
            for user in path
        ))
        return self._describe(session)

    def _op_add_user(self, session: ClientSession, params: dict[str, Any]) -> Any:
        # An explicit uid pins the assignment — the shard router uses this to
        # replicate one user identically across every worker's registry.
        return self.db.add_user(params.get("name"), uid=params.get("uid"))

    def _op_users(self, session: ClientSession, params: dict[str, Any]) -> Any:
        return [[uid, name] for uid, name in sorted(self.db.users().items(),
                                                    key=lambda kv: repr(kv[0]))]

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
        # Metadata assembled by hand (not result.to_wire()): serializing the
        # full row set just to overwrite it with the first page would be
        # O(total rows) of waste under the db lock.
        return {
            "kind": result.kind,
            "columns": list(result.columns),
            "rowcount": result.rowcount,
            "status": result.status,
            "elapsed_ms": result.elapsed_ms,
            **self._first_page(session, result.rows, params["max_rows"]),
        }

    def _first_page(
        self, session: ClientSession, rows: list, max_rows: int
    ) -> dict[str, Any]:
        """The paging fields of a row result: the first page (cut by rows
        and by bytes) and a cursor parking the tail for ``fetch``."""
        first, cursor_id = session.open_cursor(rows, max_rows, self.page_bytes)
        return {
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
        return self._result_payload(
            self.db.execute_batch(params["prepared"], params["param_rows"])
        )

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
        return self._result_payload(
            self.db.commit_transaction(session.take_transaction())
        )

    def _op_rollback(
        self, session: ClientSession, params: dict[str, Any]
    ) -> Any:
        return {"discarded": session.rollback_transaction()}

    def _stage(self, session: ClientSession, params: dict[str, Any]) -> Any:
        """Stage in-transaction DML into the session's write buffer.

        ``_plan_statement`` routes ``execute_prepared`` and
        ``execute_batch`` here while the session has an open transaction;
        takes no lock (the buffer is per-session, the store untouched).
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
                positives, negatives = store.sign_counts(path)
                out.append({
                    "path": _jsonify(path),
                    "label": format_path(path),
                    "positives": positives,
                    "negatives": negatives,
                })
        return out

    def _server_stats(self) -> dict[str, Any]:
        """This endpoint's own counters (the ``server`` section of
        ``stats``; the router reports its own under ``router``)."""
        with self._state_lock:
            server = dict(self.stats)
        server["inflight_requests"] = self._inflight_now()
        server["sessions_active"] = server["connections_active"]
        server["uptime_seconds"] = round(self._uptime(), 3)
        server["max_sessions"] = self.max_sessions
        server["max_inflight_requests"] = self.max_inflight_requests
        server["slow_ops_recorded"] = self.slow_ops.recorded_total
        return server

    def _op_stats(self, session: ClientSession, params: dict[str, Any]) -> Any:
        snapshot = self.db.snapshot_stats()
        snapshot["server"] = self._server_stats()
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
        """One curation write: propose / transition / decay_sweep, under
        the exclusive write lock. Not transactional (its op-table row says
        so): transitions are compare-and-swap ops against the live
        registry."""
        action = _require(params, "action")
        # Attribution: an explicit actor wins; otherwise the logged-in
        # curator (clients send actor=null, so a plain .get default won't do).
        actor = params.get("actor")
        if actor is None:
            actor = session.user
        if action == "propose":
            result = self.db.lifecycle_propose(
                session.effective_path(params.get("path")),
                _require(params, "relation"),
                _require(params, "values"),
                params.get("sign", "+"),
                actor=actor,
                confidence=params.get("confidence", 1.0),
                decay=params.get("decay", "none"),
                derived_from=params.get("derived_from", ()),
            )
        elif action == "transition":
            result = self.db.lifecycle_transition(
                _require(params, "belief"), _require(params, "to"),
                actor=actor, expect=params.get("expect"),
                reason=params.get("reason"),
            )
        elif action == "decay_sweep":
            result = self.db.lifecycle_decay_sweep(actor=actor)
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
            # No path lists every world's queue, not the session default's.
            path = params.get("path")
            return _jsonify(self.db.lifecycle_list(
                path=None if path is None else session.effective_path(path),
                status=params.get("status"),
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


def _unknown_operation(op: str) -> BeliefDBError:
    return BeliefDBError(f"unknown operation {op!r}")


def _require(params: dict[str, Any], key: str) -> Any:
    if key not in params:
        raise BeliefDBError(f"missing required parameter {key!r}")
    return params[key]


def _page_size(params: dict[str, Any], key: str) -> int:
    value = params.get(key, DEFAULT_PAGE_ROWS)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise BeliefDBError(f"{key} must be a positive int, got {value!r}")
    return value
