"""Asyncio client for the belief server — pipelined by construction.

:class:`AsyncBeliefClient` speaks the same wire protocol as the blocking
:class:`~repro.server.client.BeliefClient`, over asyncio streams. One
background *reader task* pulls response frames off the socket and resolves
them into per-request futures by request id, so any number of coroutines can
``await client.call(...)`` concurrently on one connection — that is
pipelining, with zero extra machinery at the call sites::

    async with await AsyncBeliefClient.connect(host, port) as client:
        await client.login("Carol", create=True)
        results = await asyncio.gather(*[
            client.execute_prepared(
                "insert into Sightings values (?,?,?,?,?)", row)
            for row in rows
        ])

Cancellation is safe mid-pipeline: cancelling a caller abandons its future,
and the response that later arrives for that id is discarded without
disturbing the correlation of every other in-flight request. A connection
that dies fails **all** pending futures with :class:`ConnectionLost`; this
client never reconnects implicitly (create a new one), matching the rule
that a lost response must never be silently retried.

``max_inflight`` (default 64) bounds how many requests this client keeps on
the wire; extra callers wait on an internal semaphore, which keeps one
misbehaving loop from queueing unbounded frames into the server.
"""

from __future__ import annotations

import asyncio
from typing import Any, Sequence

from repro.errors import BeliefDBError
from repro.server import binproto, protocol
from repro.server.client import (
    ConnectionLost,
    RemoteStatement,
    batch_addressing,
    iter_batch_chunks,
    merge_batch_payload,
    unwrap_response,
)
from repro.server.protocol import ProtocolError, Request, Response


class AsyncBeliefClient:
    """One pipelined asyncio connection to a belief server.

    Build with :meth:`connect`; use as an async context manager or call
    :meth:`close` explicitly. All ops are coroutines; the generic
    :meth:`call` covers anything without a convenience wrapper.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        max_inflight: int = 64,
        codec: Any = binproto.JSON_CODEC,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._codec = codec
        self._request_id = 0
        #: request id -> future awaiting that response.
        self._pending: dict[int, asyncio.Future] = {}
        self._window = asyncio.Semaphore(max(1, max_inflight))
        self._closed = False
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 5433,
        timeout: float = 30.0,
        max_inflight: int = 64,
        wire: str = "auto",
    ) -> "AsyncBeliefClient":
        """Open a connection; raises :class:`ConnectionLost` on failure.

        ``wire`` negotiates the frame codec before the reader task starts
        (the one moment the connection is guaranteed quiet): ``auto``
        upgrades to binary when the server offers it and silently stays
        on JSON against older servers, ``json`` skips the hello entirely,
        and ``binary`` raises :class:`ProtocolError` unless the upgrade
        actually happens.
        """
        binproto.check_wire_mode(wire)
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout=timeout
            )
        except (OSError, asyncio.TimeoutError) as exc:
            raise ConnectionLost(
                f"could not connect to {host}:{port}: {exc}"
            ) from exc
        try:
            codec = await asyncio.wait_for(
                cls._negotiate(reader, writer, wire), timeout=timeout
            )
        except asyncio.TimeoutError as exc:
            writer.close()
            raise ConnectionLost(
                f"wire negotiation with {host}:{port} timed out"
            ) from exc
        except (OSError, asyncio.IncompleteReadError) as exc:
            writer.close()
            raise ConnectionLost(
                f"connection to server lost during wire negotiation: {exc}"
            ) from exc
        except BaseException:
            writer.close()
            raise
        return cls(reader, writer, max_inflight=max_inflight, codec=codec)

    @staticmethod
    async def _negotiate(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter, wire: str
    ) -> Any:
        """The hello exchange, on the JSON floor; returns the codec."""
        if wire == "json":
            return binproto.JSON_CODEC
        request = Request(
            id=0, op=binproto.HELLO_OP,
            params={
                "codecs": binproto.client_offer(wire),
                "version": binproto.VERSION,
            },
        )
        await protocol.write_frame_async(writer, request.to_wire())
        payload = await protocol.read_frame_async(reader)
        if payload is None:
            raise ConnectionLost(
                "server closed the connection during wire negotiation"
            )
        response = Response.from_wire(payload)
        if response.id != request.id:
            raise ProtocolError(
                f"hello response id {response.id} does not match the "
                f"hello request id {request.id}"
            )
        if not response.ok:
            error = response.error or {}
            if "unknown operation" in error.get("message", ""):
                if wire == "binary":
                    raise ProtocolError(
                        "wire='binary' requested but the server does not "
                        "speak the hello handshake"
                    )
                return binproto.JSON_CODEC
            unwrap_response(response)  # raises the travelled error, typed
        result = response.result if isinstance(response.result, dict) else {}
        chosen = result.get("codec", binproto.CODEC_JSON)
        if chosen == binproto.CODEC_BINARY:
            return binproto.BinaryCodec()
        if chosen == binproto.CODEC_JSON:
            if wire == "binary":
                raise ProtocolError(
                    "wire='binary' requested but the server negotiated "
                    "the connection down to JSON"
                )
            return binproto.JSON_CODEC
        raise ProtocolError(f"server chose an unknown wire codec {chosen!r}")

    # -------------------------------------------------------------- plumbing

    async def _read_loop(self) -> None:
        """Resolve response frames into pending futures, forever.

        Ends — failing every pending future — on EOF, an I/O error, a
        malformed frame, or a response id that matches no pending request
        (including cancelled-and-already-reaped ids; those are impossible
        to tell apart from garbage only if the future was *removed*, so
        cancelled futures stay registered until their response arrives and
        is discarded).
        """
        failure: BaseException = ConnectionLost("server closed the connection")
        try:
            while True:
                payload = await self._codec.read_async(self._reader)
                if payload is None:
                    break
                response = Response.from_wire(payload)
                future = self._pending.pop(response.id, None)
                if future is None:
                    failure = ProtocolError(
                        f"response id {response.id} does not match any "
                        "in-flight request"
                    )
                    break
                if not future.done():  # cancelled callers just drop theirs
                    future.set_result(response)
        except (OSError, ProtocolError, asyncio.IncompleteReadError) as exc:
            failure = (
                exc if isinstance(exc, ProtocolError)
                else ConnectionLost(f"connection to server lost: {exc}")
            )
        except asyncio.CancelledError:
            failure = ConnectionLost("client is closed")
        finally:
            self._closed = True
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(failure)
                    # Cancelled callers abandoned their futures; mark the
                    # exception retrieved so their teardown stays silent.
                    future.exception()
            self._pending.clear()
            self._writer.close()

    async def call(self, op: str, **params: Any) -> Any:
        """Send one request; await and return its result (or raise).

        Concurrent calls pipeline automatically. Cancelling this coroutine
        leaves the request in flight server-side (it may still be applied —
        same truth as a lost response); its eventual response is discarded.
        """
        if self._closed:
            raise ConnectionLost("client is closed")
        async with self._window:
            self._request_id += 1
            request = Request(id=self._request_id, op=op, params=params)
            future: asyncio.Future = asyncio.get_running_loop().create_future()
            self._pending[request.id] = future
            try:
                await self._codec.write_async(
                    self._writer, request.to_wire()
                )
            except ProtocolError:
                # Local encoding failure: nothing reached the wire, the
                # connection survives — surface the real error.
                self._pending.pop(request.id, None)
                raise
            except (OSError, ConnectionResetError) as exc:
                self._pending.pop(request.id, None)
                raise ConnectionLost(
                    f"connection to server lost: {exc}"
                ) from exc
            response = await asyncio.shield(future)
        return unwrap_response(response)

    @property
    def inflight(self) -> int:
        """Requests currently awaiting a response."""
        return len(self._pending)

    @property
    def closed(self) -> bool:
        return self._closed

    async def close(self) -> None:
        """Tear the connection down; pending calls raise ConnectionLost."""
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        try:
            await self._writer.wait_closed()
        except (OSError, ConnectionResetError):
            pass

    async def __aenter__(self) -> "AsyncBeliefClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # ------------------------------------------------------------------- ops

    async def ping(self) -> bool:
        return await self.call("ping") == "pong"

    async def login(self, user: Any, create: bool = False) -> dict[str, Any]:
        return await self.call("login", user=user, create=create)

    async def whoami(self) -> dict[str, Any]:
        return await self.call("whoami")

    async def set_path(self, path: Sequence[Any]) -> dict[str, Any]:
        return await self.call("set_path", path=list(path))

    async def add_user(self, name: str | None = None) -> Any:
        return await self.call("add_user", name=name)

    async def prepare(self, sql: str) -> RemoteStatement:
        info = await self.call("prepare", sql=sql)
        return RemoteStatement(
            id=info["stmt"],
            kind=info["kind"],
            param_count=info["param_count"],
            columns=tuple(info["columns"]),
        )

    async def execute_prepared(
        self,
        statement: RemoteStatement | str,
        params: Sequence[Any] = (),
        max_rows: int | None = None,
    ) -> dict[str, Any]:
        call_params: dict[str, Any] = {"params": list(params)}
        if isinstance(statement, RemoteStatement):
            call_params["stmt"] = statement.id
        else:
            call_params["sql"] = statement
        if max_rows is not None:
            call_params["max_rows"] = max_rows
        return await self.call("execute_prepared", **call_params)

    async def execute_batch(
        self,
        statement: RemoteStatement | str,
        param_rows: Sequence[Sequence[Any]],
        chunk_rows: int = 256,
    ) -> dict[str, Any]:
        """Batched DML: one round trip / write-lock / WAL fsync per chunk."""
        call_params = batch_addressing(statement)
        payload: dict[str, Any] | None = None
        for chunk in iter_batch_chunks(param_rows, chunk_rows):
            payload = merge_batch_payload(payload, await self.call(
                "execute_batch", param_rows=chunk, **call_params,
            ))
        assert payload is not None
        return payload

    async def believes(
        self,
        relation: str,
        values: Sequence[Any],
        path: Sequence[Any] | None = None,
        sign: str = "+",
    ) -> bool:
        return await self.call(
            "believes", relation=relation, values=list(values),
            path=None if path is None else list(path), sign=sign,
        )

    async def stats(self) -> dict[str, Any]:
        return await self.call("stats")

    async def lifecycle_propose(
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
        return await self.call(
            "lifecycle", action="propose", relation=relation,
            values=list(values),
            path=None if path is None else list(path), sign=sign,
            actor=actor, confidence=confidence, decay=decay,
            derived_from=list(derived_from),
        )

    async def lifecycle_transition(
        self,
        belief: str,
        to: str,
        *,
        expect: str | None = None,
        reason: str | None = None,
        actor: Any = None,
    ) -> dict[str, Any]:
        return await self.call(
            "lifecycle", action="transition", belief=belief, to=to,
            expect=expect, reason=reason, actor=actor,
        )

    async def audit_log(
        self, belief: str | None = None, limit: int | None = None
    ) -> list[dict[str, Any]]:
        return await self.call("audit", kind="log", belief=belief, limit=limit)

    async def lifecycle_queue(
        self,
        path: Sequence[Any] | None = None,
        status: str | None = None,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        return await self.call(
            "audit", kind="queue",
            path=None if path is None else list(path),
            status=status, limit=limit,
        )

    async def provenance(self, belief: str) -> dict[str, Any]:
        return await self.call("audit", kind="provenance", belief=belief)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"<AsyncBeliefClient ({state}, {len(self._pending)} in flight)>"


__all__ = ["AsyncBeliefClient", "ConnectionLost", "BeliefDBError"]
