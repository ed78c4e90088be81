"""The belief-server wire protocol.

Frames are length-prefixed JSON: a 4-byte big-endian unsigned length followed
by that many bytes of UTF-8 JSON. The format is deliberately boring — any
language with sockets and a JSON parser can speak it.

Two frame shapes travel the wire:

* request  — ``{"id": <int>, "op": <str>, "params": {...}}``
* response — ``{"id": <int>, "ok": true,  "result": <json>}`` or
  ``{"id": <int>, "ok": false, "error": {"type": <str>, "message": <str>}}``

The protocol **fails closed**: oversized lengths, truncated frames, invalid
UTF-8/JSON, non-object payloads, and missing or mistyped fields all raise
:class:`ProtocolError`. A server drops the connection on a protocol error (a
malformed peer cannot be re-synchronized mid-stream); well-formed requests
with *semantic* problems (unknown op, bad arguments) get an error *response*
and the connection survives.

Pipelining contract
-------------------
Every request carries a client-chosen ``id`` and the matching response echoes
it back; that id — not arrival order — is the unit of correlation. A client
may therefore keep any number of requests in flight on one connection
without waiting for responses. Two server implementations honor the same
frames with different ordering guarantees:

* the threaded :class:`~repro.server.server.BeliefServer` executes one
  request per connection at a time, so responses happen to arrive in
  request order;
* the pipelined :class:`~repro.server.async_server.AsyncBeliefServer`
  executes in-flight requests **concurrently** (bounded by its
  ``max_inflight``) and writes each response as it completes, so responses
  may arrive **out of order**.

Clients must correlate strictly by id and must not pipeline a request that
depends on the *effect* of an earlier one (``login`` then a default-path
insert, ``prepare`` then ``execute_prepared`` on the new handle) without
awaiting the earlier response first. Transactions sharpen this rule: every
request between ``begin`` and ``commit``/``rollback`` — and those three ops
themselves — depends on the session's transaction state, so **in-transaction
requests must not be pipelined at all**; await each response before sending
the next. A response id that was never issued — or one already consumed —
desynchronizes the stream and fails closed. See ``docs/wire-protocol.md``
for the full contract.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from dataclasses import dataclass, field
from typing import Any

from repro.errors import BeliefDBError, FrameTooLargeError, TransactionError

#: Default ceiling on a frame's payload size. Large enough for any realistic
#: result set here, small enough that a garbage length prefix cannot make the
#: reader allocate gigabytes. Every frame function below accepts a
#: ``max_frame_bytes`` override (``repro serve --max-frame-bytes`` plumbs it
#: end to end); ``None`` means this default.
MAX_FRAME_BYTES = 1 << 20

#: Oversize handling is asymmetric by design. *Outgoing* frames that exceed
#: the ceiling raise the typed :class:`~repro.errors.FrameTooLargeError`
#: before a single byte reaches the wire — a server substitutes a small
#: structured error response (the connection survives), and a client surfaces
#: the error locally (the connection, and any pipelined requests on it, are
#: untouched). *Incoming* announced lengths over the ceiling still fail
#: closed with :class:`ProtocolError` and no allocation: trusting a garbage
#: length prefix enough to drain it would let one bad frame park the reader
#: on bytes that may never arrive.

@dataclass(frozen=True)
class OpSpec:
    """One wire operation: everything the codec, both server cores, the
    shard router and the clients know about it. :data:`OP_TABLE` is the
    only place these facts are written down — an op is one row here plus
    its ``_op_<name>`` handler (and ``_route_<name>`` where the router
    rule is ``custom``).

    ``code`` / ``layout`` are binary-v1 wire format (append-only): the
    kind byte and the positional parameter order behind the presence
    bitmask (at most 8 names). ``code=None`` means the op was never given
    a code; ``json_escape`` means its requests always travel as a JSON
    frame inside the binary framing, code or not.

    ``lock`` is how a server core guards the handler: ``none`` (touches no
    database state), ``pinned`` (reads a pinned MVCC version, no lock),
    ``read`` (shared side of the readers-writer lock), ``write``
    (exclusive), or None — a plain server has no handler and answers
    "unknown operation".

    ``route`` is the router rule: ``local`` (the inherited ``_op_<name>``
    runs on the router's own session; user lookups go through the
    router's user registry), ``by_path``
    (forward to the shard owning the belief path's head, path made
    explicit), ``fanout`` (every shard, answers joined under shard
    headings), ``custom`` (``_route_<name>``), or None — not served.

    ``names_session_state``: True when the op always addresses state that
    dies with the connection (an open transaction), or the parameter
    names that do when present (a statement handle, a cursor id).
    """

    name: str
    code: int | None
    layout: tuple[str, ...] = ()
    lock: str | None = "read"
    route: str | None = "custom"
    in_txn: bool = True
    shed_exempt: bool = False
    names_session_state: bool | tuple[str, ...] = False
    json_escape: bool = False


_TUPLE = ("relation", "values", "path", "sign")

OP_TABLE: tuple[OpSpec, ...] = (
    # Transport-level: answered by the connection loop (it switches the
    # codec, a framing concern), so a pre-hello server's ordinary "unknown
    # operation" reply is the client's stay-on-JSON signal.
    OpSpec("hello", 0x00, ("codecs", "version"), lock=None, route=None),
    # session
    OpSpec("ping", 0x01, lock="none", route="local", shed_exempt=True),
    OpSpec("login", 0x02, ("user", "create"), lock="write", route="local"),
    OpSpec("logout", 0x03, route="local"),
    OpSpec("whoami", 0x04, route="local"),
    OpSpec("set_path", 0x05, ("path",), route="local"),
    # user management
    OpSpec("add_user", 0x06, ("name",), lock="write"),
    OpSpec("users", 0x07),
    # Retired: nothing serves these; the slots stay so no later code moved
    # and an old frame still decodes to the typed error. A tuple write is
    # BeliefSQL (``insert into [not] R values``, ``delete from R values``),
    # and so is a read (a BeliefSQL select; BCQ is the embedded API's).
    OpSpec("insert", 0x08, _TUPLE, lock=None, route=None),
    OpSpec("delete", 0x09, _TUPLE, lock=None, route=None),
    OpSpec("execute", 0x0A, ("sql",), lock=None, route=None),
    # BeliefSQL statements (by handle or inline text), batches, paging.
    OpSpec("prepare", 0x0B, ("sql",)),
    # ``pinned`` is the select's class; dispatch promotes DML to ``write``
    # (or stages it, in a transaction) once the statement is resolved.
    OpSpec("execute_prepared", 0x0C, ("stmt", "sql", "params", "max_rows"),
           lock="pinned", names_session_state=("stmt",)),
    # The payload is a parameter matrix, which C json serializes faster
    # than any per-cell tag walk (measured): the frame always escapes.
    OpSpec("execute_batch", 0x0D, ("stmt", "sql", "param_rows"),
           lock="write", names_session_state=("stmt",), json_escape=True),
    OpSpec("close_statement", 0x0E, ("stmt",), route="local",
           names_session_state=("stmt",)),
    OpSpec("fetch", 0x0F, ("cursor", "n"), route="local",
           names_session_state=("cursor",)),
    OpSpec("close_cursor", 0x10, ("cursor",), route="local",
           names_session_state=("cursor",)),
    # Transactions: begin/rollback only touch the per-session buffer;
    # commit applies the whole group under one exclusive acquisition.
    OpSpec("begin", 0x11),
    OpSpec("commit", 0x12, lock="write", names_session_state=True),
    OpSpec("rollback", 0x13, names_session_state=True),
    # queries (``query``, raw BCQ text, is retired; see above)
    OpSpec("query", 0x14, ("bcq",), lock=None, route=None),
    OpSpec("believes", 0x15, _TUPLE, lock="pinned", route="by_path"),
    OpSpec("world", 0x16, ("path",), lock="pinned", route="by_path"),
    OpSpec("worlds", 0x17, lock="pinned"),
    # introspection (kripke/describe read the live store: shared lock)
    OpSpec("stats", 0x18, lock="pinned"),
    OpSpec("metrics", 0x19, lock="none", shed_exempt=True),
    OpSpec("kripke", 0x1A, route="fanout"),
    OpSpec("describe", 0x1B, route="fanout"),
    # Sharding: answered by the router only; fleet health must stay
    # visible under overload.
    OpSpec("shard_status", 0x1C, lock=None, route="local", shed_exempt=True),
    # Belief lifecycle (curation writes, compare-and-swap against the live
    # registry — staging one would let a commit reorder around the
    # compare) and the audit reads. Their parameter sets outgrow one
    # bitmask byte, so they were given no code: JSON escape by decision.
    OpSpec("lifecycle", None, lock="write", in_txn=False, json_escape=True),
    OpSpec("audit", None, lock="pinned", json_escape=True),
)

#: The ops a server or router answers, by name (``hello`` and the retired
#: ``insert`` / ``delete`` / ``execute`` / ``query`` hold codes but are not
#: database ops).
OPS: dict[str, OpSpec] = {
    spec.name: spec for spec in OP_TABLE
    if spec.lock is not None or spec.route is not None
}


def names_session_state(op: str, params: dict[str, Any]) -> bool:
    """Does this request address per-session server state (a prepared-
    statement handle, a cursor id, the open transaction) that cannot
    survive a reconnect?"""
    spec = OPS.get(op)
    if spec is None:
        return False
    named = spec.names_session_state
    if isinstance(named, bool):
        return named
    return any(key in params for key in named)


def not_transactional(op: str) -> TransactionError:
    """The refusal for an op whose row says ``in_txn=False``."""
    return TransactionError(
        f"the {op} op is not transactional; commit or rollback first "
        "(inside a transaction, DML goes through execute_prepared)"
    )


_LENGTH = struct.Struct(">I")


class ProtocolError(BeliefDBError):
    """The byte stream or frame violates the wire protocol (fail closed)."""


def estimated_row_bytes(row: "list[Any] | tuple[Any, ...]") -> int:
    """A cheap upper-leaning estimate of one row's JSON-encoded size.

    Deliberately NOT ``len(json.dumps(row))`` — that would serialize every
    batch chunk and result page twice (once here, once in ``encode_frame``)
    on the hot bulk-write and scan paths. ASCII strings count their length
    (escaping may double it — the budget's 3x headroom absorbs that);
    non-ASCII strings count 6 bytes per char, the ``\\uXXXX`` worst case, so
    they can only be overcounted.
    """
    total = 2  # brackets
    for value in row:
        if isinstance(value, str):
            total += (len(value) if value.isascii() else 6 * len(value)) + 3
        else:
            total += 24  # numbers; anything else fails validation later
    return total


# --------------------------------------------------------------------- frames


@dataclass(frozen=True)
class Request:
    """One client operation: ``op`` with keyword ``params``."""

    id: int
    op: str
    params: dict[str, Any] = field(default_factory=dict)

    def to_wire(self) -> dict[str, Any]:
        return {"id": self.id, "op": self.op, "params": self.params}

    @classmethod
    def from_wire(cls, payload: dict[str, Any]) -> "Request":
        _expect_keys(payload, {"id", "op", "params"}, optional={"params"})
        rid = payload["id"]
        op = payload["op"]
        params = payload.get("params", {})
        if not isinstance(rid, int) or isinstance(rid, bool):
            raise ProtocolError(f"request id must be an int, got {rid!r}")
        if not isinstance(op, str):
            raise ProtocolError(f"request op must be a string, got {op!r}")
        if not isinstance(params, dict):
            raise ProtocolError(f"request params must be an object, got {params!r}")
        return cls(id=rid, op=op, params=params)


@dataclass(frozen=True)
class Response:
    """The server's answer to one request."""

    id: int
    ok: bool
    result: Any = None
    error: dict[str, str] | None = None

    def to_wire(self) -> dict[str, Any]:
        if self.ok:
            return {"id": self.id, "ok": True, "result": self.result}
        return {"id": self.id, "ok": False, "error": self.error}

    @classmethod
    def from_wire(cls, payload: dict[str, Any]) -> "Response":
        _expect_keys(
            payload, {"id", "ok", "result", "error"},
            optional={"result", "error"},
        )
        rid = payload["id"]
        ok = payload["ok"]
        if not isinstance(rid, int) or isinstance(rid, bool):
            raise ProtocolError(f"response id must be an int, got {rid!r}")
        if not isinstance(ok, bool):
            raise ProtocolError(f"response ok must be a bool, got {ok!r}")
        if ok:
            return cls(id=rid, ok=True, result=payload.get("result"))
        error = payload.get("error")
        if (
            not isinstance(error, dict)
            or not isinstance(error.get("type"), str)
            or not isinstance(error.get("message"), str)
        ):
            raise ProtocolError(f"malformed error payload: {error!r}")
        return cls(id=rid, ok=False, error={"type": error["type"],
                                            "message": error["message"]})

    @classmethod
    def success(cls, request_id: int, result: Any) -> "Response":
        return cls(id=request_id, ok=True, result=result)

    @classmethod
    def failure(cls, request_id: int, exc: BaseException) -> "Response":
        return cls(
            id=request_id,
            ok=False,
            error={"type": type(exc).__name__, "message": str(exc)},
        )


def _expect_keys(
    payload: dict[str, Any], allowed: set[str], optional: set[str] = frozenset()
) -> None:
    if not isinstance(payload, dict):
        raise ProtocolError(f"frame payload must be an object, got {payload!r}")
    unknown = set(payload) - allowed
    if unknown:
        raise ProtocolError(f"unknown frame fields {sorted(unknown)}")
    missing = (allowed - optional) - set(payload)
    if missing:
        raise ProtocolError(f"missing frame fields {sorted(missing)}")


# ------------------------------------------------------------------- encoding


def _ceiling(max_frame_bytes: int | None) -> int:
    return MAX_FRAME_BYTES if max_frame_bytes is None else int(max_frame_bytes)


def encode_frame(
    payload: dict[str, Any], max_frame_bytes: int | None = None
) -> bytes:
    """Serialize one frame: length prefix + JSON body.

    Raises the typed :class:`~repro.errors.FrameTooLargeError` when the
    encoded body exceeds the ceiling, so callers can substitute a structured
    error response instead of tearing the connection down.
    """
    limit = _ceiling(max_frame_bytes)
    try:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"payload is not JSON-serializable: {exc}") from exc
    if len(body) > limit:
        raise FrameTooLargeError(
            f"frame of {len(body)} bytes exceeds the frame ceiling "
            f"({limit} bytes)"
        )
    return _LENGTH.pack(len(body)) + body


def _parse_body(body: bytes) -> dict[str, Any]:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def decode_frame(
    body: bytes, max_frame_bytes: int | None = None
) -> dict[str, Any]:
    """Parse a frame body (the bytes *after* the length prefix); fail closed."""
    limit = _ceiling(max_frame_bytes)
    if len(body) > limit:
        raise FrameTooLargeError(
            f"frame of {len(body)} bytes exceeds the frame ceiling "
            f"({limit} bytes)"
        )
    return _parse_body(body)




# ---------------------------------------------------------------- socket I/O


def _read_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; None on clean EOF at a frame boundary."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if chunks:
                raise ProtocolError(
                    f"connection closed mid-frame ({n - remaining}/{n} bytes)"
                )
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(
    sock: socket.socket, max_frame_bytes: int | None = None
) -> dict[str, Any] | None:
    """Read one frame from a socket; None when the peer closed cleanly."""
    limit = _ceiling(max_frame_bytes)
    prefix = _read_exact(sock, _LENGTH.size)
    if prefix is None:
        return None
    (length,) = _LENGTH.unpack(prefix)
    if length > limit:
        raise ProtocolError(
            f"announced frame of {length} bytes exceeds the frame ceiling "
            f"({limit} bytes)"
        )
    body = _read_exact(sock, length) if length else b""
    if body is None:
        raise ProtocolError("connection closed between length prefix and body")
    return _parse_body(body)


def write_frame(
    sock: socket.socket, payload: dict[str, Any],
    max_frame_bytes: int | None = None,
) -> None:
    """Encode and send one frame."""
    sock.sendall(encode_frame(payload, max_frame_bytes))


# --------------------------------------------------------------- asyncio I/O


async def read_frame_async(
    reader: asyncio.StreamReader, max_frame_bytes: int | None = None
) -> dict[str, Any] | None:
    """Read one frame from an asyncio stream; None on clean EOF.

    Same fail-closed semantics as :func:`read_frame`: EOF is only clean at a
    frame boundary; mid-frame truncation, oversized lengths, and malformed
    bodies raise :class:`ProtocolError`.
    """
    limit = _ceiling(max_frame_bytes)
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(
            f"connection closed mid-frame ({len(exc.partial)}/"
            f"{_LENGTH.size} bytes of length prefix)"
        ) from exc
    (length,) = _LENGTH.unpack(prefix)
    if length > limit:
        raise ProtocolError(
            f"announced frame of {length} bytes exceeds the frame ceiling "
            f"({limit} bytes)"
        )
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            "connection closed between length prefix and body"
        ) from exc
    return _parse_body(body)


async def write_frame_async(
    writer: asyncio.StreamWriter, payload: dict[str, Any],
    max_frame_bytes: int | None = None,
) -> None:
    """Encode and send one frame on an asyncio stream (drains the buffer)."""
    writer.write(encode_frame(payload, max_frame_bytes))
    await writer.drain()
