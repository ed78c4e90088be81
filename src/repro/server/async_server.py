"""The pipelined asyncio server core.

:class:`AsyncBeliefServer` serves the same wire protocol, ops, and
concurrency *semantics* as the threaded :class:`~repro.server.server
.BeliefServer` — one shared :class:`~repro.bdms.bdms.BeliefDBMS` with the
same discipline (MVCC-pinned lock-free reads, exclusively-locked writes),
the same per-session statement/cursor registries,
the same op table and background checkpoint thread — but replaces
thread-per-connection blocking I/O with a single asyncio event loop and
**request pipelining**:

* each connection is one reader coroutine that keeps pulling frames off the
  socket without waiting for earlier requests to finish;
* every well-formed request becomes a task that executes the (CPU-bound,
  lock-guarded) database work on a small thread pool and then writes its
  response frame — tagged with the request's id — as soon as it completes,
  so responses may return **out of order**;
* ``max_inflight`` bounds how many of one connection's requests may execute
  concurrently; beyond it the reader stops pulling frames and TCP
  backpressure does the rest.

Why this wins: with a blocking request-per-connection server, every op pays
a full client round trip plus a lock handoff before the *next* op of that
connection can even be read. A pipelined connection keeps a window of
requests parked server-side, so the lock never goes idle waiting on the
network. The ``served_openloop`` workload of ``bench_ledger/`` measures
this core with pipelined clients.

The event loop runs on a dedicated daemon thread, so the server presents
the exact same synchronous ``start()`` / ``stop()`` / context-manager
lifecycle as the threaded server; swap one class name (or pass ``--async``
to ``repro serve``) and every client — blocking, pipelined, or
:class:`~repro.server.async_client.AsyncBeliefClient` — keeps working.

Ordering contract: requests of one connection are *started* in arrival
order but run concurrently; see :mod:`repro.server.protocol` and
``docs/wire-protocol.md`` for what clients may and may not pipeline.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.bdms.bdms import BeliefDBMS
from repro.errors import BeliefDBError, FrameTooLargeError
from repro.obs.clock import monotonic_s
from repro.obs.trace import DEFAULT_CAPACITY, DEFAULT_THRESHOLD_MS
from repro.server import binproto, protocol
from repro.server.protocol import ProtocolError, Request, Response
from repro.server.server import BeliefServer
from repro.server.session import ClientSession

#: Default cap on one connection's concurrently executing requests.
DEFAULT_MAX_INFLIGHT = 32

#: Default executor width for the lock-guarded database work.
DEFAULT_WORKER_THREADS = 8


class AsyncBeliefServer(BeliefServer):
    """Pipelined asyncio server over one shared :class:`BeliefDBMS`.

    Parameters are those of :class:`~repro.server.server.BeliefServer` plus:

    max_inflight:
        Per-connection bound on concurrently executing requests. ``1``
        degenerates to the threaded server's strictly-serial-per-connection
        behavior (still on the async core).
    worker_threads:
        Size of the thread pool that runs the lock-guarded database work.
        Reads share the RW lock across the pool; writes serialize on it
        exactly as in the threaded server, so the WAL order is still the
        write-lock acquisition order.
    """

    def __init__(
        self,
        db: BeliefDBMS,
        host: str = "127.0.0.1",
        port: int = 0,
        checkpoint_interval: float | None = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        worker_threads: int = DEFAULT_WORKER_THREADS,
        max_sessions: int | None = None,
        max_inflight_requests: int | None = None,
        slow_op_ms: float | None = DEFAULT_THRESHOLD_MS,
        slow_op_capacity: int = DEFAULT_CAPACITY,
        max_frame_bytes: int | None = None,
        wire: str = "auto",
    ) -> None:
        super().__init__(
            db, host=host, port=port,
            checkpoint_interval=checkpoint_interval,
            max_sessions=max_sessions,
            max_inflight_requests=max_inflight_requests,
            slow_op_ms=slow_op_ms,
            slow_op_capacity=slow_op_capacity,
            max_frame_bytes=max_frame_bytes,
            wire=wire,
        )
        if max_inflight < 1:
            raise BeliefDBError("max_inflight must be >= 1")
        self.max_inflight = max_inflight
        self.worker_threads = max(1, worker_threads)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._aio_server: asyncio.base_events.Server | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    # ------------------------------------------------------------- lifecycle

    def start(self) -> "AsyncBeliefServer":
        if self._loop_thread is not None:
            raise BeliefDBError("server already started")
        self._stopping.clear()
        self._started.clear()
        self._startup_error = None
        self._executor = ThreadPoolExecutor(
            max_workers=self.worker_threads,
            thread_name_prefix="belief-aio-worker",
        )
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="belief-aio-loop", daemon=True
        )
        self._loop_thread.start()
        self._started.wait(timeout=30)
        if self._startup_error is not None:
            error = self._startup_error
            self.stop()
            raise BeliefDBError(f"async server failed to start: {error}")
        if self.address is None:
            self.stop()
            raise BeliefDBError("async server did not bind within 30s")
        self._started_at = monotonic_s()
        self._start_checkpoint_thread()
        return self

    def stop(self) -> None:
        """Stop accepting, fail open connections, join the loop thread."""
        self._stopping.set()
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._request_shutdown)
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=10)
            self._loop_thread = None
        if self._checkpoint_thread is not None:
            self._checkpoint_thread.join(timeout=5)
            self._checkpoint_thread = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._loop = None
        self._aio_server = None
        self._started_at = None

    @property
    def running(self) -> bool:
        return self._loop_thread is not None

    def __enter__(self) -> "AsyncBeliefServer":
        return self.start()

    # ------------------------------------------------------------- loop body

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            loop.run_until_complete(self._serve())
        except BaseException as exc:  # noqa: BLE001 — surface via start()
            self._startup_error = exc
        finally:
            try:
                # Give cancelled tasks one sweep to unwind before closing.
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
            finally:
                # Drain the worker pool BEFORE closing the loop: late
                # run_in_executor completions call back into the loop, and a
                # stopped-but-open loop absorbs them quietly where a closed
                # one would raise in the worker threads.
                if self._executor is not None:
                    self._executor.shutdown(wait=True)
                loop.close()
            self._started.set()  # in case bind failed before setting

    def _request_shutdown(self) -> None:
        """Run inside the loop: close the listener and live connections."""
        if self._aio_server is not None:
            self._aio_server.close()
        for task in asyncio.all_tasks(self._loop):
            if getattr(task, "_belief_conn", False):
                task.cancel()

    async def _serve(self) -> None:
        server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port,
            backlog=64, reuse_address=True,
        )
        self._aio_server = server
        self.address = server.sockets[0].getsockname()[:2]
        self._started.set()
        async with server:
            try:
                await server.serve_forever()
            except asyncio.CancelledError:
                pass

    # ----------------------------------------------------------- connections

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            task._belief_conn = True  # type: ignore[attr-defined]
        peername = writer.get_extra_info("peername") or ("?", 0)
        session = self.session_type(f"{peername[0]}:{peername[1]}")
        with self._state_lock:
            self.stats["connections_total"] += 1
            self.stats["connections_active"] += 1
        self._conn_counter_metric.inc()
        inflight = asyncio.Semaphore(self.max_inflight)
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        # One-slot codec holder shared between this reader loop and the
        # in-flight writer tasks: every connection starts on the JSON
        # floor, a hello may upgrade the slot. A holder (not a local)
        # because responses are written by tasks spawned before the swap.
        codec_ref: list[Any] = [binproto.JSON_CODEC]
        try:
            if self._over_session_limit():
                await self._refuse_connection_async(reader, writer)
                return  # the finally block closes and un-counts it
            while not self._stopping.is_set():
                try:
                    payload = await codec_ref[0].read_async(
                        reader, self.max_frame_bytes
                    )
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
                    # Codec switch barrier: this server answers out of
                    # order, so all in-flight responses must flush in the
                    # old codec before the hello response commits the new
                    # one. The client mirrors this contract by sending
                    # hello only on an otherwise-quiet connection.
                    if tasks:
                        await asyncio.gather(*tasks, return_exceptions=True)
                    response, next_codec = self._negotiate_wire(request)
                    try:
                        async with write_lock:
                            await codec_ref[0].write_async(
                                writer, response.to_wire(),
                                self.max_frame_bytes,
                            )
                    except (ProtocolError, FrameTooLargeError, OSError):
                        break
                    codec_ref[0] = next_codec
                    continue
                # Backpressure: beyond max_inflight the reader stops pulling
                # frames, so the client's sends eventually block in TCP.
                await inflight.acquire()
                handler = asyncio.ensure_future(self._run_request(
                    session, request, writer, write_lock, inflight, codec_ref
                ))
                tasks.add(handler)
                handler.add_done_callback(tasks.discard)
        except asyncio.CancelledError:
            pass  # server shutdown; fall through to cleanup
        finally:
            try:
                # Let already-accepted requests finish (their responses may
                # still be writable on a half-closed socket); a request
                # racing a dead socket just fails its write silently below.
                if tasks:
                    await asyncio.gather(*tasks, return_exceptions=True)
            finally:
                # Also when shutdown cancels that wait: a connection left
                # open keeps its client waiting until its read timeout.
                session.abandon_transaction()  # an open txn dies with it
                writer.close()
                with self._state_lock:
                    self.stats["connections_active"] -= 1
                try:
                    await writer.wait_closed()  # lets the loop close it
                except (OSError, asyncio.CancelledError):
                    pass

    async def _refuse_connection_async(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Async twin of :meth:`BeliefServer._refuse_connection`: answer an
        over-limit connection's first request with ``SERVER_OVERLOADED``."""
        self._count_shed("sessions")
        try:
            payload = await protocol.read_frame_async(
                reader, self.max_frame_bytes
            )
            if payload is None:
                return
            request = Request.from_wire(payload)
            await protocol.write_frame_async(writer, Response.failure(
                request.id, self._overload_error("sessions")
            ).to_wire(), self.max_frame_bytes)
        except (ProtocolError, FrameTooLargeError, OSError,
                asyncio.CancelledError):
            pass

    async def _run_request(
        self,
        session: ClientSession,
        request: Request,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        inflight: asyncio.Semaphore,
        codec_ref: list[Any],
    ) -> None:
        """Execute one request on the worker pool; write its response frame.

        ``_dispatch`` is the exact code path the threaded server runs —
        parse/resolve outside the lock, read/write guard, op body, stats,
        error envelopes — so the two servers cannot drift semantically.
        """
        loop = asyncio.get_running_loop()
        try:
            try:
                assert self._executor is not None
                response = await loop.run_in_executor(
                    self._executor, self._dispatch, session, request
                )
                # Encode in the connection's current codec. The encode
                # call is synchronous (no await inside), so the binary
                # codec's reused buffer cannot be interleaved by another
                # task; the frame bytes it returns are a private copy.
                codec = codec_ref[0]
                try:
                    frame = codec.encode(
                        response.to_wire(), self.max_frame_bytes
                    )
                except FrameTooLargeError as exc:
                    # The response outgrew the ceiling; substitute a small
                    # typed error frame so the connection survives — same
                    # behavior as the threaded core.
                    frame = codec.encode(
                        Response.failure(request.id, exc).to_wire(),
                        self.max_frame_bytes,
                    )
            except ProtocolError:
                # The response cannot be framed at all (not serializable).
                # Fail closed exactly like the threaded core: drop the
                # connection — leaving it open would park the client on a
                # reply that can never arrive.
                with self._state_lock:
                    self.stats["protocol_errors"] += 1
                writer.close()
                return
            async with write_lock:
                writer.write(frame)
                await writer.drain()
        except (OSError, asyncio.CancelledError,
                RuntimeError, ConnectionResetError):
            # The connection died under us (or shutdown cancelled the
            # write); the reader loop notices on its next read.
            pass
        finally:
            inflight.release()

    # The threaded accept loop and per-connection threads never run here.
    def _accept_loop(self) -> None:  # pragma: no cover — not used
        raise BeliefDBError("AsyncBeliefServer has no threaded accept loop")

    def _serve_connection(self, *args: Any) -> None:  # pragma: no cover
        raise BeliefDBError("AsyncBeliefServer serves connections on asyncio")
