"""Network serving layer: many users, one shared belief database.

The paper's motivating deployments (NatureMapping community databases,
message boards) are multi-user: scientists concurrently report sightings,
agree with, and dispute each other's tuples. This package turns the
single-process :class:`~repro.bdms.bdms.BeliefDBMS` into a network service:

* :mod:`repro.server.protocol` — a length-prefixed JSON wire protocol
  (request / response / error frames) that fails closed on oversized or
  malformed input;
* :mod:`repro.server.binproto` — the negotiated binary-v1 frame codec
  (struct-packed header, compact tagged values, JSON escape hatch) and
  the ``hello`` handshake that upgrades a connection onto it; JSON stays
  the compatibility floor — clients that never send a hello are served
  unchanged (``docs/wire-protocol.md``);
* :mod:`repro.server.session` — per-connection sessions tracking the
  authenticated user and a default belief path, so a plain
  ``insert into Sightings ...`` is implicitly annotated with the session
  user (the paper's "users see their own belief world" model);
* :mod:`repro.server.server` — a threaded socket server multiplexing many
  clients over one shared BDMS (reads serve lock-free from pinned MVCC
  versions, writes serialize on an exclusive lock — ``docs/concurrency
  .md``), with ``prepare``/``execute_prepared``/``execute_batch`` ops
  (``?`` parameters, structured result payloads) and ``fetch`` paging for
  large result sets;
* :mod:`repro.server.async_server` — the pipelined asyncio server core:
  same ops, same locking discipline, same sessions, but each connection
  keeps up to ``max_inflight`` requests executing concurrently and
  responses return out of order, correlated by request id;
* :mod:`repro.server.client` — the blocking client library, now with
  :meth:`~repro.server.client.BeliefClient.submit` pipelining and batched
  :meth:`~repro.server.client.BeliefClient.execute_batch`;
* :mod:`repro.server.async_client` — a natively pipelined asyncio client.

Most applications should use :func:`repro.api.connect` instead of the raw
client — it wraps this layer in DB-API-style connections and cursors.

Quickstart::

    from repro import sightings_schema
    from repro.bdms.bdms import BeliefDBMS
    from repro.server import BeliefServer, BeliefClient

    with BeliefServer(BeliefDBMS(sightings_schema())) as server:
        with BeliefClient(*server.address) as carol:
            carol.add_user("Carol")
            carol.login("Carol")
            carol.execute_prepared(
                "insert into Sightings values (?,?,?,?,?)",
                ["s1", "Carol", "bald eagle", "6-14-08", "Lake Forest"])
"""

from repro.server.async_client import AsyncBeliefClient
from repro.server.async_server import AsyncBeliefServer
from repro.server.binproto import (
    CODEC_BINARY,
    CODEC_JSON,
    HELLO_OP,
    WIRE_MODES,
    BinaryCodec,
    JsonCodec,
    codec_for,
)
from repro.server.client import (
    BeliefClient,
    PendingReply,
    RemoteError,
    RemoteStatement,
)
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    Request,
    Response,
    decode_frame,
    encode_frame,
    read_frame,
    read_frame_async,
    write_frame,
    write_frame_async,
)
from repro.server.server import BeliefServer, ReadWriteLock
from repro.server.session import ClientSession

__all__ = [
    "AsyncBeliefClient",
    "AsyncBeliefServer",
    "BeliefClient",
    "BeliefServer",
    "BinaryCodec",
    "CODEC_BINARY",
    "CODEC_JSON",
    "ClientSession",
    "HELLO_OP",
    "JsonCodec",
    "MAX_FRAME_BYTES",
    "PendingReply",
    "ProtocolError",
    "ReadWriteLock",
    "RemoteError",
    "RemoteStatement",
    "Request",
    "Response",
    "WIRE_MODES",
    "codec_for",
    "decode_frame",
    "encode_frame",
    "read_frame",
    "read_frame_async",
    "write_frame",
    "write_frame_async",
]
