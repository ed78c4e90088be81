"""Blocking (and pipelined) client for the belief server.

:class:`BeliefClient` speaks the :mod:`repro.server.protocol` wire format over
one TCP connection. :meth:`BeliefClient.call` is synchronous (send request,
wait for response); :meth:`BeliefClient.submit` *pipelines* — it sends the
request and returns a :class:`PendingReply` immediately, so many requests can
be in flight on one connection. Responses are correlated strictly by request
id, so they may arrive out of order (the async server completes in-flight
requests concurrently) and still resolve the right pending reply. The client
is thread-safe — a lock serializes frame I/O — though pipelining pays off
when one thread issues a window of submits before resolving results.

Errors raised by the server travel back as typed error frames; the client
re-raises them as the matching :mod:`repro.errors` class when one exists
(e.g. a rejected insert raises :class:`~repro.errors.RejectedUpdateError`
client-side too), else as :class:`RemoteError`. A connection that dies with
requests in flight fails **all** of them with :class:`ConnectionLost` — a
lost response is never retried, and a reconnect always drains the pipeline
first.

Example::

    with BeliefClient("127.0.0.1", 5433) as client:
        client.login("Carol", create=True)
        client.execute_prepared(
            "insert into Sightings values (?,?,?,?,?)",
            ["s1", "Carol", "bald eagle", "6-14-08", "Lake Forest"])
        rows = client.drain(client.execute_prepared(
            "select S.sid, S.species from Sightings as S"))

        # pipelined: one round-trip wait for a whole window of requests
        pending = [client.submit("believes", relation="Sightings",
                                 values=["s1", "Carol", "bald eagle",
                                         "6-14-08", "Lake Forest"],
                                 path=["Carol"], sign="+")
                   for _ in range(16)]
        answers = [p.result() for p in pending]
"""

from __future__ import annotations

import select
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Sequence

import repro.errors as _errors
from repro.errors import BeliefDBError, FrameTooLargeError
from repro.server import binproto, protocol
from repro.server.protocol import ProtocolError, Request, Response


@dataclass(frozen=True)
class RemoteStatement:
    """A server-side prepared-statement handle (from :meth:`BeliefClient.prepare`)."""

    id: int
    kind: str
    param_count: int
    columns: tuple[str, ...]

#: Error types the server may send that map back to local exception classes.
_ERROR_TYPES: dict[str, type[BeliefDBError]] = {
    name: obj
    for name, obj in vars(_errors).items()
    if isinstance(obj, type) and issubclass(obj, BeliefDBError)
}


class RemoteError(BeliefDBError):
    """A server-side failure with no matching local exception class."""

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.remote_message = message


def unwrap_response(response: "Response") -> Any:
    """A response's result, or the travelled error re-raised typed."""
    if response.ok:
        return response.result
    assert response.error is not None
    exc_type = _ERROR_TYPES.get(response.error["type"])
    if exc_type is not None:
        raise exc_type(response.error["message"])
    raise RemoteError(response.error["type"], response.error["message"])


def batch_statement_params(statement: "RemoteStatement | str") -> dict[str, Any]:
    """The ``stmt``/``sql`` addressing half of an ``execute_batch`` call."""
    if isinstance(statement, RemoteStatement):
        return {"stmt": statement.id}
    return {"sql": statement}


#: Byte budget per execute_batch chunk — a third of the frame ceiling.
#: :func:`~repro.server.protocol.estimated_row_bytes` can undercount an all-escapes ASCII string
#: by 2x (every ``"`` / ``\\`` doubles when JSON-escaped), so a third —
#: not half — keeps even that pathological chunk under the 1 MiB ceiling
#: with room for the op envelope.
MAX_BATCH_CHUNK_BYTES = protocol.MAX_FRAME_BYTES // 3


def iter_batch_chunks(
    param_rows: Sequence[Sequence[Any]], chunk_rows: int,
    max_chunk_bytes: int = MAX_BATCH_CHUNK_BYTES,
) -> "list[list[list[Any]]]":
    """Split a batch into wire-sized chunks (an empty batch is one chunk,
    so the statement still gets validated server-side).

    Chunks are bounded by ``chunk_rows`` AND by estimated encoded size
    (``max_chunk_bytes``, default a third of the default frame ceiling), so
    wide rows cannot push a chunk past the frame ceiling. A single row
    larger than the budget still travels alone — if it alone cannot be
    framed, the send raises a local
    :class:`~repro.errors.FrameTooLargeError` without touching the
    connection.
    """
    chunks: list[list[list[Any]]] = []
    current: list[list[Any]] = []
    current_bytes = 0
    for raw in param_rows:
        row = list(raw)
        row_bytes = protocol.estimated_row_bytes(row)
        if current and (
            len(current) >= max(1, chunk_rows)
            or current_bytes + row_bytes > max_chunk_bytes
        ):
            chunks.append(current)
            current, current_bytes = [], 0
        current.append(row)
        current_bytes += row_bytes
    chunks.append(current)
    return chunks


def merge_batch_payload(
    payload: dict[str, Any] | None, part: dict[str, Any]
) -> dict[str, Any]:
    """Fold one chunk's result payload into the running aggregate."""
    if payload is None:
        return part
    payload["elapsed_ms"] += part["elapsed_ms"]
    if payload["rowcount"] < 0 or part["rowcount"] < 0:
        # In-transaction chunks are *staged* (rowcount -1, unknowable
        # before commit); the aggregate keeps the uniform staged shape.
        payload["rowcount"] = -1
        payload["status"] = f"{part['kind'].upper()} STAGED"
        return payload
    payload["rowcount"] += part["rowcount"]
    payload["status"] = f"{part['kind'].upper()} {payload['rowcount']}"
    return payload


class ConnectionLost(BeliefDBError):
    """The connection died mid-call or could not be established."""


#: In-flight marker: the request is on the wire, its response not yet read.
_UNRESOLVED = object()


class PendingReply:
    """A handle for one pipelined request (from :meth:`BeliefClient.submit`).

    :meth:`result` blocks until *this* request's response arrives — frames
    for other in-flight requests read along the way are buffered and resolve
    their own pendings. A reply can be resolved exactly once; a connection
    failure resolves every in-flight reply with :class:`ConnectionLost`.
    """

    __slots__ = ("_client", "id")

    def __init__(self, client: "BeliefClient", request_id: int) -> None:
        self._client = client
        self.id = request_id

    def result(self) -> Any:
        """Block until the response arrives; return its result (or raise)."""
        return self._client._resolve(self.id)

    def done(self) -> bool:
        """True when the response (or a connection failure) has arrived."""
        return self._client._peek_done(self.id)

    def __repr__(self) -> str:
        state = "done" if self.done() else "in flight"
        return f"<PendingReply #{self.id} ({state})>"


class BeliefClient:
    """A synchronous connection to a :class:`~repro.server.server.BeliefServer`.

    Parameters
    ----------
    host / port:
        Server address.
    connect_retries / retry_delay:
        The initial connect is retried (helpful when the server is still
        binding); call latency is not — a lost connection raises
        :class:`ConnectionLost`.
    timeout:
        Socket timeout in seconds for connect and each response.
    auto_reconnect:
        Recovery path for server restarts. When True, a call that finds the
        connection gone — dropped earlier, or closed by the server while no
        request was in flight — makes **one bounded reconnect attempt** (a
        single fresh TCP connect, after which :attr:`on_reconnect` — if set —
        may re-establish session state) before the request is sent; a send
        failure likewise retries once on a fresh connection. A call whose
        request was already on the wire when the connection died is *never*
        retried — the server may have applied it — so that call still
        raises :class:`ConnectionLost`, and the *next* call reconnects.
        Explicit :meth:`close` always wins: a client closed by its owner
        stays closed. Default False (a lost connection is terminal, the
        pre-durability behavior).
    max_inflight:
        Cap on responses outstanding on the wire. At the cap,
        :meth:`submit` first *reads* (buffering responses for their
        pending replies) before sending — without this, a large enough
        un-resolved window fills both sockets' buffers: the server blocks
        sending responses nobody reads, stops reading requests, and the
        client's blocked send would misread a healthy connection as dead
        after the socket timeout.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 5433,
        connect_retries: int = 10,
        retry_delay: float = 0.05,
        timeout: float = 30.0,
        auto_reconnect: bool = False,
        max_inflight: int = 64,
        max_frame_bytes: int | None = None,
        wire: str = "auto",
    ) -> None:
        self.host = host
        self.port = port
        self.wire = binproto.check_wire_mode(wire)
        self.max_frame_bytes = (
            protocol.MAX_FRAME_BYTES if max_frame_bytes is None
            else int(max_frame_bytes)
        )
        self.timeout = timeout
        self.auto_reconnect = auto_reconnect
        self.max_inflight = max(1, max_inflight)
        # Wire codec state: every connection starts on the JSON floor and
        # the first submit on it sends a ``hello`` (deferred, not done at
        # connect time, so connect-time server errors — e.g. an admission
        # refusal answering the first frame — still surface on the first
        # *call*, exactly as they do for a never-negotiating client).
        self._codec: Any = binproto.JSON_CODEC
        self._negotiate_pending = False
        #: Called with this client after a successful reconnect, before the
        #: pending request is resent — the hook for session re-establishment
        #: (login, default path); see :class:`repro.api.RemoteConnection`.
        self.on_reconnect: Any = None
        # Reentrant: on_reconnect callbacks issue their own calls while the
        # frame lock is held by the reconnecting call.
        self._lock = threading.RLock()
        self._request_id = 0
        #: request id -> _UNRESOLVED | Response | Exception. Insertion order
        #: is submission order; a dead connection fails every entry.
        self._inflight: dict[int, Any] = {}
        self._sock: socket.socket | None = None
        self._user_closed = False
        self._reconnecting = False
        self._connect(connect_retries, retry_delay)

    def _connect(self, retries: int, delay: float) -> None:
        last: Exception | None = None
        for attempt in range(max(1, retries)):
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
                self._sock.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
                # A fresh connection always restarts on the JSON floor —
                # a reconnect to a different (or downgraded, JSON-only)
                # server re-negotiates from scratch instead of assuming
                # the old connection's codec.
                self._codec = binproto.JSON_CODEC
                self._negotiate_pending = self.wire != "json"
                return
            except OSError as exc:
                last = exc
                if attempt + 1 < retries:
                    time.sleep(delay)
        raise ConnectionLost(
            f"could not connect to {self.host}:{self.port} "
            f"after {max(1, retries)} attempts: {last}"
        )

    def _negotiate_locked(self) -> None:
        """Send ``hello`` and switch codecs if the server takes the offer.

        Must hold the lock, with an empty pipeline (it runs before the
        first real request of a connection, which is the only moment both
        are guaranteed). A pre-hello server answers with its normal
        "unknown operation" error — that is the stay-on-JSON signal, not
        a failure. Any *other* error (an admission refusal, for instance)
        re-raises typed, exactly as it would have for the first real
        request of a never-negotiating client.
        """
        self._negotiate_pending = False
        assert self._sock is not None
        self._request_id += 1
        request = Request(
            id=self._request_id, op=binproto.HELLO_OP,
            params={
                "codecs": binproto.client_offer(self.wire),
                "version": binproto.VERSION,
            },
        )
        try:
            self._codec.write(
                self._sock, request.to_wire(), self.max_frame_bytes
            )
            payload = self._codec.read(self._sock, self.max_frame_bytes)
        except (OSError, ProtocolError) as exc:
            self._drop(exc if isinstance(exc, ProtocolError) else None)
            raise ConnectionLost(
                f"connection to server lost during wire negotiation: {exc}"
            ) from exc
        if payload is None:
            self._drop()
            raise ConnectionLost(
                "server closed the connection during wire negotiation"
            )
        try:
            response = Response.from_wire(payload)
        except ProtocolError as exc:
            self._drop(exc)
            raise
        if response.id != request.id:
            self._drop()
            raise ProtocolError(
                f"hello response id {response.id} does not match the "
                f"hello request id {request.id}"
            )
        if not response.ok:
            error = response.error or {}
            if "unknown operation" in error.get("message", ""):
                # A server that predates the handshake: the JSON floor is
                # the negotiated outcome, unless the caller demanded
                # binary outright.
                if self.wire == "binary":
                    self._drop()
                    raise ProtocolError(
                        "wire='binary' requested but the server does not "
                        "speak the hello handshake"
                    )
                return
            self._unwrap(response)  # raises the travelled error, typed
            raise ProtocolError(  # pragma: no cover — unwrap always raises
                "hello error response did not unwrap"
            )
        result = response.result if isinstance(response.result, dict) else {}
        chosen = result.get("codec", binproto.CODEC_JSON)
        if chosen == binproto.CODEC_BINARY:
            self._codec = binproto.BinaryCodec()
        elif chosen == binproto.CODEC_JSON:
            if self.wire == "binary":
                self._drop()
                raise ProtocolError(
                    "wire='binary' requested but the server negotiated "
                    "the connection down to JSON"
                )
        else:
            # The server picked something this client never offered; the
            # next frame would be unreadable. Fail closed.
            self._drop()
            raise ProtocolError(
                f"server chose an unknown wire codec {chosen!r}"
            )

    # -------------------------------------------------------------- plumbing

    def call(self, op: str, **params: Any) -> Any:
        """Send one request and return the server's result (or raise)."""
        return self.submit(op, **params).result()

    def submit(self, op: str, **params: Any) -> PendingReply:
        """Pipeline one request: send it and return without waiting.

        The returned :class:`PendingReply` resolves to the server's result
        (or raises the travelled error). Up to ``max_inflight`` responses
        may be outstanding on the wire (past that, submit drains responses
        into the reply buffer first); responses correlate by request id,
        so out-of-order arrival (the async server) resolves the right
        replies. Do not pipeline a request that depends on the *effect* of
        an earlier in-flight one — resolve the earlier reply first (see
        the protocol module docstring).
        """
        with self._lock:
            reconnected = False
            if self._sock is not None and self._closed_while_idle():
                # The server closed the connection between calls (a
                # restart): this request has not been sent, so the branch
                # below may reconnect without replaying anything.
                self._drop()
            if self._sock is None:
                if self._user_closed:
                    raise ConnectionLost("client is closed")
                if not self.auto_reconnect or self._reconnecting:
                    raise ConnectionLost(
                        "connection to server lost "
                        "(auto_reconnect disabled; create a new client)"
                    )
                if protocol.names_session_state(op, params):
                    # A fresh session cannot know the old connection's
                    # prepared-statement/cursor handles or its open
                    # transaction; reconnecting just to be told "unknown
                    # statement" / "no transaction" would hide the truth.
                    raise ConnectionLost(
                        "connection to server lost and the request names "
                        "per-session state (a prepared statement, cursor, "
                        "or open transaction) that did not survive it; "
                        "re-establish it after reconnecting"
                    )
                self._reconnect_locked()
                reconnected = True
            if self._negotiate_pending:
                # First traffic on a fresh connection: run the hello
                # exchange before any real request so the codec can never
                # change underneath an in-flight pipeline.
                self._negotiate_locked()
            # Window bound: past max_inflight unread responses, drain the
            # socket into the reply buffer before sending more — keeping
            # both sides' buffers shallow so a big pipeline cannot wedge
            # the connection (see the max_inflight parameter docs).
            while (
                self._sock is not None
                and sum(
                    1 for state in self._inflight.values()
                    if state is _UNRESOLVED
                ) >= self.max_inflight
            ):
                self._read_one_locked()
            if self._sock is None:
                # The drain hit a dead connection; every pending reply has
                # been failed already — this request was never sent.
                raise ConnectionLost(
                    "connection to server lost while draining the "
                    "pipeline; this request was not sent"
                )
            self._request_id += 1
            request = Request(id=self._request_id, op=op, params=params)
            try:
                self._codec.write(
                    self._sock, request.to_wire(), self.max_frame_bytes
                )
            except (ProtocolError, FrameTooLargeError):
                # A LOCAL encoding failure (unserializable parameter, frame
                # over the ceiling): encode_frame raised before a single
                # byte reached the wire, so the connection — and any
                # pipelined requests on it — are untouched. Surface the
                # real error instead of tearing the session down.
                raise
            except OSError as exc:
                # The connection died under the send. The server cannot have
                # seen a complete frame, so resending once on a fresh
                # connection is safe (unlike a lost *response*) — except
                # when the request names per-session server state (handles
                # died with the session), or when other requests were in
                # flight (their responses are gone; the pipeline must fail
                # as a unit, not resend its tail behind their backs).
                had_inflight = bool(self._inflight)
                self._drop()
                if (
                    not self.auto_reconnect
                    or self._reconnecting
                    or reconnected  # this call already used its one attempt
                    or had_inflight
                    or protocol.names_session_state(op, params)
                ):
                    raise ConnectionLost(
                        f"connection to server lost: {exc}"
                    ) from exc
                self._reconnect_locked()
                if self._negotiate_pending:
                    self._negotiate_locked()
                try:
                    self._codec.write(
                        self._sock, request.to_wire(), self.max_frame_bytes
                    )
                except (OSError, ProtocolError) as retry_exc:
                    self._drop()
                    raise ConnectionLost(
                        "send failed again after one reconnect attempt: "
                        f"{retry_exc}"
                    ) from retry_exc
            self._inflight[request.id] = _UNRESOLVED
            return PendingReply(self, request.id)

    def _closed_while_idle(self) -> bool:
        """Whether the server closed the connection with no response owed.

        Must hold the lock. Without this check a request would go into the
        dead socket — the local write succeeds — and its call would raise
        :class:`ConnectionLost` for a request the server never saw. With a
        response outstanding the check is skipped: there, EOF is the loss
        of that response, which the read path reports.
        """
        if any(state is _UNRESOLVED for state in self._inflight.values()):
            return False
        sock = self._sock
        try:
            poller = select.poll()  # select() would refuse fds >= 1024
            poller.register(sock, select.POLLIN)
            return bool(poller.poll(0)) and not sock.recv(1, socket.MSG_PEEK)
        except (OSError, ValueError):  # reset, or closed by close()
            return True

    @property
    def inflight(self) -> int:
        """How many submitted requests have not been resolved yet."""
        with self._lock:
            return len(self._inflight)

    def _peek_done(self, request_id: int) -> bool:
        with self._lock:
            return self._inflight.get(request_id) is not _UNRESOLVED

    def _resolve(self, request_id: int) -> Any:
        """Block until ``request_id``'s response arrives; consume it."""
        with self._lock:
            while True:
                if request_id not in self._inflight:
                    raise BeliefDBError(
                        f"request {request_id} is not in flight "
                        "(already resolved, or never submitted here)"
                    )
                state = self._inflight[request_id]
                if state is not _UNRESOLVED:
                    del self._inflight[request_id]
                    break
                self._read_one_locked()
        if isinstance(state, BaseException):
            raise state
        return self._unwrap(state)

    def _read_one_locked(self) -> None:
        """Read one frame and route it to its pending request.

        Must hold the lock. Any failure — I/O error, clean EOF with
        requests outstanding, malformed frame, or an id that matches no
        in-flight request — drains **every** pending request with the
        failure and drops the socket: after any of those the stream cannot
        be trusted to pair responses with requests.
        """
        if self._sock is None:
            # A racing resolver already tore the connection down but our
            # request predates the drain (defensive; _drop marks all).
            self._fail_inflight(
                ConnectionLost(self._response_lost("connection is gone"))
            )
            return
        try:
            payload = self._codec.read(self._sock, self.max_frame_bytes)
        except (OSError, ProtocolError) as exc:
            self._drop(ConnectionLost(
                self._response_lost(f"connection to server lost: {exc}")
            ))
            return
        if payload is None:
            self._drop(ConnectionLost(
                self._response_lost("server closed the connection")
            ))
            return
        try:
            response = Response.from_wire(payload)
        except ProtocolError as exc:
            self._drop(exc)  # malformed response: stream cannot be trusted
            return
        if self._inflight.get(response.id) is not _UNRESOLVED:
            # Unknown or already-resolved id: the stream is desynchronized;
            # keeping the socket would pair future responses with the wrong
            # requests. Fail closed.
            self._drop(ProtocolError(
                f"response id {response.id} does not match any in-flight "
                "request"
            ))
            return
        self._inflight[response.id] = response

    _unwrap = staticmethod(unwrap_response)

    def _fail_inflight(self, exc: BaseException) -> None:
        """Resolve every in-flight request with ``exc`` (the pipeline drain).

        Must hold the lock. Called whenever the connection dies or is torn
        down on purpose: a response that never arrived is *never* silently
        retried, so every pending reply surfaces the loss explicitly.
        """
        for request_id, state in self._inflight.items():
            if state is _UNRESOLVED:
                self._inflight[request_id] = exc

    def _response_lost(self, detail: str) -> str:
        """Error text for a request whose response never arrived."""
        message = (
            f"{detail}; the in-flight request may or may not have been "
            "applied"
        )
        if self.auto_reconnect:
            message += "; the next call will attempt to reconnect"
        return message

    def reconnect(self) -> None:
        """Make one bounded reconnect attempt (then session re-establishment).

        Any requests still in flight are **drained first** — each pending
        reply resolves to :class:`ConnectionLost` — because their responses
        belong to the old connection and can never arrive on the new one.
        Raises :class:`ConnectionLost` when the single fresh connect fails,
        or when this client was explicitly closed by its owner.
        """
        with self._lock:
            if self._user_closed:
                raise ConnectionLost("client is closed")
            self._reconnect_locked()

    def _reconnect_locked(self) -> None:
        # Explicit in-flight drain: a reconnect must never leave pendings
        # waiting for responses the old connection took with it, and the
        # fresh connection must start with an empty pipeline (its response
        # ids would otherwise collide with orphaned ones).
        self._drop(ConnectionLost(self._response_lost(
            "connection was re-established underneath this request"
        )))
        self._reconnecting = True
        try:
            try:
                self._connect(retries=1, delay=0.0)
            except ConnectionLost as exc:
                raise ConnectionLost(
                    f"one reconnect attempt to {self.host}:{self.port} "
                    f"failed: {exc}"
                ) from exc
            if self.on_reconnect is not None:
                # Let the owner restore session state (login/default path)
                # before the interrupted workload resumes.
                self.on_reconnect(self)
        finally:
            self._reconnecting = False

    def _drop(self, cause: BaseException | None = None) -> None:
        """Tear down the socket without marking the client user-closed.

        Every in-flight request is drained with ``cause`` (or a generic
        :class:`ConnectionLost`) — nothing may stay parked waiting for a
        response that can no longer arrive.
        """
        if self._inflight:
            self._fail_inflight(cause if cause is not None else ConnectionLost(
                self._response_lost("connection to server lost")
            ))
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        self._user_closed = True
        # Close the socket BEFORE taking the lock: another thread may hold
        # the lock blocked in a read, and closing the socket underneath it
        # is what unblocks that read (it then drains the pipeline itself).
        sock = self._sock
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
        with self._lock:
            # A concurrent reconnect may have swapped in a fresh socket.
            if self._sock is not None and self._sock is not sock:
                try:
                    self._sock.close()
                except OSError:
                    pass
            self._sock = None
            self._fail_inflight(ConnectionLost(
                "client was closed with this request still in flight; its "
                "outcome is unknown"
            ))

    def __enter__(self) -> "BeliefClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        """No socket and no way to get one back.

        An ``auto_reconnect`` client whose connection dropped is *not*
        closed — the next call makes its bounded reconnect attempt — unless
        the owner explicitly called :meth:`close`.
        """
        if self._sock is not None:
            return False
        return self._user_closed or not self.auto_reconnect

    # ------------------------------------------------------------------- ops

    def ping(self) -> bool:
        return self.call("ping") == "pong"

    def login(self, user: Any, create: bool = False) -> dict[str, Any]:
        """Authenticate as ``user`` (name or uid); sets the default path."""
        return self.call("login", user=user, create=create)

    def logout(self) -> dict[str, Any]:
        return self.call("logout")

    def whoami(self) -> dict[str, Any]:
        return self.call("whoami")

    def set_path(self, path: Sequence[Any]) -> dict[str, Any]:
        return self.call("set_path", path=list(path))

    def add_user(self, name: str | None = None) -> Any:
        return self.call("add_user", name=name)

    def users(self) -> dict[Any, str]:
        return {uid: name for uid, name in self.call("users")}

    def insert(
        self,
        relation: str,
        values: Sequence[Any],
        path: Sequence[Any] | None = None,
        sign: str = "+",
    ) -> bool:
        """Insert a belief statement; ``path=None`` means the session world."""
        return self.call(
            "insert", relation=relation, values=list(values),
            path=None if path is None else list(path), sign=sign,
        )

    def delete(
        self,
        relation: str,
        values: Sequence[Any],
        path: Sequence[Any] | None = None,
        sign: str = "+",
    ) -> bool:
        return self.call(
            "delete", relation=relation, values=list(values),
            path=None if path is None else list(path), sign=sign,
        )

    def dispute(
        self,
        relation: str,
        values: Sequence[Any],
        path: Sequence[Any] | None = None,
    ) -> bool:
        """Insert a negative belief — "I do not believe this tuple"."""
        return self.insert(relation, values, path=path, sign="-")

    # ------------------------------------------------- prepared statements

    def prepare(self, sql: str) -> RemoteStatement:
        """Prepare a statement server-side; returns a reusable handle."""
        info = self.call("prepare", sql=sql)
        return RemoteStatement(
            id=info["stmt"],
            kind=info["kind"],
            param_count=info["param_count"],
            columns=tuple(info["columns"]),
        )

    def execute_prepared(
        self,
        statement: RemoteStatement | str,
        params: Sequence[Any] = (),
        max_rows: int | None = None,
    ) -> dict[str, Any]:
        """Execute a prepared handle (or one-shot SQL) with ``?`` parameters;
        the session's default belief path applies to prefix-less DML.

        Returns the structured result payload: ``kind``, ``columns``,
        ``rowcount``, ``status``, ``elapsed_ms``, the first page of ``rows``,
        and — for large results — a ``cursor`` to :meth:`fetch` the rest.
        """
        call_params: dict[str, Any] = {"params": list(params)}
        if isinstance(statement, RemoteStatement):
            call_params["stmt"] = statement.id
        else:
            call_params["sql"] = statement
        if max_rows is not None:
            call_params["max_rows"] = max_rows
        return self.call("execute_prepared", **call_params)

    def execute_batch(
        self,
        statement: RemoteStatement | str,
        param_rows: Sequence[Sequence[Any]],
        chunk_rows: int = 256,
    ) -> dict[str, Any]:
        """Bind one prepared DML statement to many parameter vectors at once.

        The whole batch costs one round trip, one server write-lock
        acquisition, and (on durable servers) one WAL fsync — the fast path
        for bulk curation. Batches larger than ``chunk_rows`` are split into
        sequential chunks so no single frame approaches the 1 MiB wire
        ceiling; a strict-mode rejection stops at the failing chunk (earlier
        chunks stay applied, exactly like earlier statements would).

        Returns the aggregate result payload: ``kind``, ``columns``,
        ``rowcount`` (summed), ``status``, ``elapsed_ms``.
        """
        call_params = batch_statement_params(statement)
        payload: dict[str, Any] | None = None
        chunk_bytes = self.max_frame_bytes // 3
        for chunk in iter_batch_chunks(param_rows, chunk_rows, chunk_bytes):
            payload = merge_batch_payload(payload, self.call(
                "execute_batch", param_rows=chunk, **call_params,
            ))
        assert payload is not None
        return payload

    # --------------------------------------------------------- transactions

    def begin(self) -> dict[str, Any]:
        """Open a transaction on this session: DML stages until commit.

        Do **not** pipeline requests while a transaction is open — every
        in-transaction request depends on the session's transaction state;
        await each response (``call``, not ``submit``) before the next.
        """
        return self.call("begin")

    def commit(self) -> dict[str, Any]:
        """Commit the open transaction atomically; the aggregate payload.

        One server write-lock acquisition and one WAL fsync for the whole
        group; a mid-apply rejection rolls everything back server-side and
        raises :class:`~repro.errors.TransactionAbortedError` here.
        """
        return self.call("commit")

    def rollback(self) -> dict[str, Any]:
        """Discard the open transaction: ``{"discarded": <n statements>}``."""
        return self.call("rollback")

    def close_statement(self, statement: RemoteStatement | int) -> bool:
        stmt_id = statement.id if isinstance(statement, RemoteStatement) else statement
        return bool(self.call("close_statement", stmt=stmt_id)["closed"])

    def fetch(self, cursor_id: int, n: int | None = None) -> dict[str, Any]:
        """Next page of a paged result: ``{"rows": [...], "has_more": bool}``."""
        if n is None:
            return self.call("fetch", cursor=cursor_id)
        return self.call("fetch", cursor=cursor_id, n=n)

    def drain(self, payload: dict[str, Any]) -> list[list[Any]]:
        """All rows of an ``execute_prepared`` payload, fetching the paged
        tail from the server's cursor when the first page was not the end."""
        rows = list(payload["rows"])
        cursor_id = payload.get("cursor")
        has_more = bool(payload.get("has_more"))
        while has_more and cursor_id is not None:
            page = self.fetch(cursor_id)
            rows.extend(page["rows"])
            has_more = bool(page["has_more"])
        return rows

    def close_cursor(self, cursor_id: int) -> bool:
        return bool(self.call("close_cursor", cursor=cursor_id)["closed"])

    def query(self, bcq: str) -> list[list[Any]]:
        """All answers of a raw BCQ (paged server-side like a select)."""
        return self.drain(self.call("query", bcq=bcq))

    def believes(
        self,
        relation: str,
        values: Sequence[Any],
        path: Sequence[Any] | None = None,
        sign: str = "+",
    ) -> bool:
        return self.call(
            "believes", relation=relation, values=list(values),
            path=None if path is None else list(path), sign=sign,
        )

    def world(self, path: Sequence[Any] | None = None) -> dict[str, Any]:
        return self.call("world", path=None if path is None else list(path))

    def worlds(self) -> list[dict[str, Any]]:
        return self.call("worlds")

    def stats(self) -> dict[str, Any]:
        return self.call("stats")

    def metrics(self) -> dict[str, Any]:
        """The server's metric families + slow-op trace, JSON-plain.

        Served without the database lock and exempt from admission-control
        shedding, so it answers even when the server is overloaded.
        """
        return self.call("metrics")

    def kripke(self) -> str:
        return self.call("kripke")

    def describe(self) -> str:
        return self.call("describe")

    # --------------------------------------------------- lifecycle & audit

    def lifecycle_propose(
        self,
        relation: str,
        values: Sequence[Any],
        path: Sequence[Any] | None = None,
        sign: str = "+",
        *,
        actor: Any = None,
        confidence: float = 1.0,
        decay: str = "none",
        derived_from: Sequence[Any] = (),
    ) -> dict[str, Any]:
        """Start lifecycle tracking for one explicit statement (PROPOSED)."""
        return self.call(
            "lifecycle", action="propose", relation=relation,
            values=list(values),
            path=None if path is None else list(path), sign=sign,
            actor=actor, confidence=confidence, decay=decay,
            derived_from=list(derived_from),
        )

    def lifecycle_transition(
        self,
        belief: str,
        to: str,
        *,
        expect: str | None = None,
        reason: str | None = None,
        actor: Any = None,
        path: Sequence[Any] | None = None,
    ) -> dict[str, Any]:
        """Move a belief to ``to``; ``expect`` makes it a CAS that raises
        LifecycleConflictError when another curator got there first.
        ``path`` is routing-only (which world the belief lives in) and
        matters against a shard router."""
        return self.call(
            "lifecycle", action="transition", belief=belief, to=to,
            expect=expect, reason=reason, actor=actor,
            path=None if path is None else list(path),
        )

    def lifecycle_decay_sweep(self, *, actor: Any = None) -> dict[str, Any]:
        """One decay sweep over every tracked belief; ``{"swept", "changed"}``."""
        return self.call("lifecycle", action="decay_sweep", actor=actor)

    def audit_log(
        self, belief: str | None = None, limit: int | None = None
    ) -> list[dict[str, Any]]:
        """The append-only audit history, oldest first."""
        return self.call("audit", kind="log", belief=belief, limit=limit)

    def lifecycle_get(self, belief: str) -> dict[str, Any] | None:
        return self.call("audit", kind="record", belief=belief)

    def lifecycle_queue(
        self,
        path: Sequence[Any] | None = None,
        status: str | None = None,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """The curation review queue: tracked beliefs, filtered, oldest first."""
        return self.call(
            "audit", kind="queue",
            path=None if path is None else list(path),
            status=status, limit=limit,
        )

    def provenance(self, belief: str) -> dict[str, Any]:
        return self.call("audit", kind="provenance", belief=belief)

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"<BeliefClient {self.host}:{self.port} ({state})>"
