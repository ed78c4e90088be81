"""binary-v1: the negotiated compact wire framing.

The JSON protocol (:mod:`repro.server.protocol`) is the compatibility
floor — every server speaks it, every connection starts in it, and a peer
that never negotiates stays on it forever. This module adds the optional
``binary-v1`` codec a client may negotiate with a ``hello`` exchange:

* a ``struct``-packed 16-byte header — magic, version, frame kind /
  op-code, request id, body length — replaces the JSON envelope, so the
  hot fields (``id``, ``op``, ``ok``) never touch a serializer at all;
* a msgpack-style compact body for the known payload shapes: request
  params travel *positionally* against a per-op layout (a presence
  bitmask plus the values, no key strings on the wire), small values use
  one-byte tags, short all-string lists use a vectorized encoding (one
  length table + one joined blob instead of per-cell tags);
* a JSON escape hatch for everything unshaped: ops without a code,
  params outside the registered layout, oversized integers, deep or
  large collections — any of those makes the frame (or subtree) travel
  as plain JSON *inside* the binary framing, so the codec is never less
  expressive, and never slower than JSON where C-accelerated ``json``
  would win (large row matrices deliberately take this path).

Header layout (big-endian)::

    +-------+-----+------+--------------+----------+-----------+
    | magic | ver | kind |  request id  | body len |   body    |
    |  2 B  | 1 B | 1 B  |  8 B (i64)   | 4 B (u32)| len bytes |
    +-------+-----+------+--------------+----------+-----------+

``kind`` is an op-code (:data:`OP_CODES`) for requests, or one of
the reserved frame kinds (response-ok, response-error, JSON-escape
request/response). Every decode failure — bad magic, wrong version,
unknown kind, announced length over the ceiling, truncated header or
body, malformed body bytes, trailing garbage — raises the same typed
:class:`~repro.server.protocol.ProtocolError` the JSON codec raises, and
EOF is clean only on a frame boundary.

Negotiation (see ``docs/wire-protocol.md``): the client sends a normal
``hello`` request listing the codecs it speaks, in preference order; the
server answers with the codecs *it* speaks and the one it chose (the
first client offer it supports), and both sides switch immediately after
that response. A server that predates ``hello`` answers "unknown
operation" — the client silently stays on JSON. The WAL never changes
codec: durability logs JSON regardless of what carried the write.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Any

from repro.errors import FrameTooLargeError
from repro.server import protocol
from repro.server.protocol import ProtocolError

#: Codec names as they travel in the ``hello`` exchange.
CODEC_JSON = "json"
CODEC_BINARY = "binary-v1"

#: ``wire=`` modes accepted by servers, clients, and ``repro serve``.
#: ``json`` disables binary negotiation entirely; ``auto`` negotiates
#: binary when the peer offers it; ``binary`` is ``auto`` server-side and
#: *requires* a successful binary negotiation client-side (debug mode).
WIRE_MODES = ("json", "binary", "auto")

#: The transport-level negotiation op (code 0x00 in the op table, but not
#: one of :data:`~repro.server.protocol.OPS`: the connection loop answers
#: it, dispatch never sees it).
HELLO_OP = "hello"

MAGIC = b"\xb1\xdb"
VERSION = 1

_HEADER = struct.Struct(">2sBBqI")
HEADER_SIZE = _HEADER.size  # 16
_HEADER_PAD = bytes(HEADER_SIZE)

#: Reserved frame kinds (request op-codes occupy 0x00..0xDF).
KIND_RESPONSE_OK = 0xE0
KIND_RESPONSE_ERR = 0xE1
KIND_JSON_REQUEST = 0xF0
KIND_JSON_RESPONSE = 0xF1

#: The binary-v1 op-code table, derived from the one op registry
#: (:data:`repro.server.protocol.OP_TABLE`): ``kind`` byte -> row. Part of
#: the wire format — appending is compatible, reordering is not. An op
#: without a code simply travels as a JSON-escape frame, so the codec is
#: never less expressive than the floor.
_BY_CODE = {
    spec.code: spec for spec in protocol.OP_TABLE if spec.code is not None
}
OP_CODES = {spec.name: code for code, spec in _BY_CODE.items()}

#: Strings every session sends constantly — result-payload keys, status
#: words — interned to a 2-byte tag. Part of the wire format: append
#: only, never reorder.
COMMON_STRINGS = (
    "kind", "columns", "rows", "rowcount", "status", "elapsed_ms",
    "cursor", "has_more", "pong", "select", "insert", "delete",
    "update", "stmt", "param_count", "closed", "discarded", "uid",
    "name", "path", "user", "sign", "+", "-",
    "peer", "user_name", "default_path", "statements", "cursors",
    "transaction", "commit", "rollback", "begin", "worlds", "users",
)
_COMMON_CODES = {s: i for i, s in enumerate(COMMON_STRINGS)}

# Hot-path lookup table, precomputed once: one dict hit per frame instead
# of shape-set construction + two lookups per encode. Rows marked
# ``json_escape`` are absent, so their frames take the escape.
_OP_ENC = {
    spec.name: (spec.code, spec.layout, frozenset(spec.layout))
    for spec in _BY_CODE.values()
    if not spec.json_escape
}
_REQ_KEYS = frozenset(("id", "op", "params"))
_RESP_KEYS = frozenset(("id", "ok", "result", "error"))
_ERR_KEYS = frozenset(("type", "message"))

# ------------------------------------------------------------- body tags
#
# msgpack-inspired one-byte tags. fix ranges first (they are also the hot
# ones), then the explicit tags. 0xC4..0xC7 are this codec's own
# extensions (vectorized strings, interned strings, JSON subtree).

_TAG_NIL = 0xC0
_TAG_FALSE = 0xC2
_TAG_TRUE = 0xC3
_TAG_STRVEC = 0xC4     # u8 count, u32 blob length, 0x1F-joined UTF-8 cells
_TAG_COMMON = 0xC6     # u8 index into COMMON_STRINGS
_TAG_JSON = 0xC7       # u32 length + UTF-8 JSON bytes (escape subtree)
_TAG_MAPLAYOUT = 0xC8  # u8 count, u16 blob length, 0x1F-joined keys, values
_TAG_F64 = 0xCB
_TAG_U16 = 0xCD
_TAG_I64 = 0xD3
_TAG_STR8 = 0xD9
_TAG_STR16 = 0xDA
_TAG_STR32 = 0xDB
_TAG_ARR16 = 0xDC
_TAG_MAP16 = 0xDE

_F64 = struct.Struct(">d")
_I64 = struct.Struct(">q")
_U32 = struct.Struct(">I")
_U16 = struct.Struct(">H")

#: The cell separator for STRVEC / MAPLAYOUT blobs: ASCII unit separator,
#: which never occurs in real identifiers, SQL, or status strings. Cells
#: that DO contain it simply take a slower encoding — never corruption
#: (the encoder validates with one ``str.count`` before committing).
_SEP = "\x1f"

#: Encoder-side map-layout cache: tuple of keys (in dict order) ->
#: prebuilt ``MAPLAYOUT`` prefix bytes, or False for key tuples that
#: cannot take the layout encoding. Response payloads reuse a handful of
#: fixed key sets, so this converges instantly; bounded against
#: adversarially unique key sets.
_MAP_PREFIXES: dict[tuple, Any] = {}
#: Decoder-side inverse: keys blob -> tuple of key strings.
_KEY_TUPLES: dict[bytes, tuple] = {}
_MAX_LAYOUT_CACHE = 1024

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: Containers larger than these go as JSON subtrees: C-accelerated
#: ``json`` beats a per-item Python loop past a handful of elements, so
#: the escape hatch is also the fast path for big results.
_MAX_BIN_LIST = 16
_MAX_BIN_MAP = 8
_MAX_STRVEC = 16

#: Decode-side nesting ceiling — adversarial frames cannot recurse the
#: decoder into a stack blowout.
_MAX_DEPTH = 32


class _Unshaped(Exception):
    """Internal: this value/payload needs the JSON escape hatch."""


def _json_bytes(value: Any) -> bytes:
    try:
        return json.dumps(value, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(
            f"payload is not JSON-serializable: {exc}"
        ) from exc


def _pack_value(out: bytearray, v: Any, depth: int = 0) -> None:
    """Append one value's binary encoding to ``out``.

    Raises :class:`_Unshaped` for values only JSON can carry faithfully
    (non-string map keys, integers beyond int64) — the *caller* decides
    whether to escape the subtree or the whole frame.
    """
    t = type(v)
    if t is str:
        ci = _COMMON_CODES.get(v)
        if ci is not None:
            out.append(_TAG_COMMON)
            out.append(ci)
            return
        try:
            b = v.encode("utf-8")
        except UnicodeEncodeError:
            # Unpaired surrogates: JSON (ensure_ascii) carries them, so
            # the escape hatch must too — never less expressive.
            raise _Unshaped("string is not UTF-8-encodable") from None
        n = len(b)
        if n < 32:
            out.append(0xA0 | n)
        elif n < 256:
            out.append(_TAG_STR8)
            out.append(n)
        elif n < 65536:
            out.append(_TAG_STR16)
            out += _U16.pack(n)
        else:
            out.append(_TAG_STR32)
            out += _U32.pack(n)
        out += b
        return
    if t is bool:  # before int: bool is an int subclass
        out.append(_TAG_TRUE if v else _TAG_FALSE)
        return
    if t is int:
        if 0 <= v < 128:
            out.append(v)
        elif -32 <= v < 0:
            out.append(v & 0xFF)
        elif 0 <= v < 65536:
            out.append(_TAG_U16)
            out += _U16.pack(v)
        elif _INT64_MIN <= v <= _INT64_MAX:
            out.append(_TAG_I64)
            out += _I64.pack(v)
        else:
            raise _Unshaped("integer beyond int64")
        return
    if v is None:
        out.append(_TAG_NIL)
        return
    if t is float:
        out.append(_TAG_F64)
        out += _F64.pack(v)
        return
    if t is list or t is tuple:
        n = len(v)
        if 0 < n <= _MAX_STRVEC:
            # Vectorized all-string fast path: one C join + one count to
            # validate + one encode, instead of a per-cell Python loop.
            try:
                joined = _SEP.join(v)
                blob = joined.encode("utf-8")
            except (TypeError, UnicodeEncodeError):
                joined = None
            if joined is not None and joined.count(_SEP) == n - 1:
                out.append(_TAG_STRVEC)
                out.append(n)
                out += _U32.pack(len(blob))
                out += blob
                return
        if n > _MAX_BIN_LIST or (n and type(v[0]) in (list, tuple, dict)):
            # Big lists and row matrices ride the C json serializer —
            # per-cell Python recursion would be slower than the floor.
            body = _json_bytes(list(v) if t is tuple else v)
            out.append(_TAG_JSON)
            out += _U32.pack(len(body))
            out += body
            return
        if n < 16:
            out.append(0x90 | n)
        else:  # pragma: no cover — n > 16 already escaped above
            out.append(_TAG_ARR16)
            out += _U16.pack(n)
        for item in v:
            _pack_value(out, item, depth + 1)
        return
    if t is dict:
        n = len(v)
        if n > _MAX_BIN_MAP:
            body = _json_bytes(v)
            out.append(_TAG_JSON)
            out += _U32.pack(len(body))
            out += body
            return
        if n == 0:
            out.append(0x80)  # empty fixmap
            return
        # Layout-cached map: the key set of a response payload repeats on
        # every frame of a session, so its whole key section is built
        # once and replayed as one prefix append; only values pay
        # per-item cost.
        kt = tuple(v)
        prefix = _MAP_PREFIXES.get(kt)
        if prefix is None:
            prefix = _build_map_prefix(kt)
            if len(_MAP_PREFIXES) < _MAX_LAYOUT_CACHE:
                _MAP_PREFIXES[kt] = prefix
        if prefix is False:
            raise _Unshaped("map keys cannot take the layout encoding")
        out += prefix
        # Scalars inline: a per-value call into _pack_value costs more
        # than encoding the value itself at this size.
        for item in v.values():
            ti = type(item)
            if ti is str:
                ci = _COMMON_CODES.get(item)
                if ci is not None:
                    out.append(_TAG_COMMON)
                    out.append(ci)
                    continue
                try:
                    b = item.encode("utf-8")
                except UnicodeEncodeError:
                    raise _Unshaped(
                        "string is not UTF-8-encodable"
                    ) from None
                ni = len(b)
                if ni < 32:
                    out.append(0xA0 | ni)
                    out += b
                    continue
            elif ti is int:
                if 0 <= item < 128:
                    out.append(item)
                    continue
            elif item is None:
                out.append(_TAG_NIL)
                continue
            elif ti is bool:
                out.append(_TAG_TRUE if item else _TAG_FALSE)
                continue
            elif ti is float:
                out.append(_TAG_F64)
                out += _F64.pack(item)
                continue
            elif ti is list:
                n2 = len(item)
                if n2 == 0:
                    out.append(0x90)  # empty fixarray
                    continue
                if n2 <= _MAX_STRVEC:
                    try:
                        joined = _SEP.join(item)
                        blob = joined.encode("utf-8")
                    except (TypeError, UnicodeEncodeError):
                        joined = None
                    if joined is not None and joined.count(_SEP) == n2 - 1:
                        out.append(_TAG_STRVEC)
                        out.append(n2)
                        out += _U32.pack(len(blob))
                        out += blob
                        continue
            _pack_value(out, item, depth + 1)
        return
    raise _Unshaped(f"unsupported type {t.__name__}")


def _build_map_prefix(kt: tuple) -> Any:
    """The prebuilt ``MAPLAYOUT`` key section for one key tuple.

    Returns False — cached too — for key tuples the layout cannot carry:
    non-string keys (JSON-escape territory, exactly as before) or keys
    containing the separator (the whole frame then rides the escape,
    which carries any string faithfully).
    """
    try:
        joined = _SEP.join(kt)
    except TypeError:
        return False
    if joined.count(_SEP) != len(kt) - 1:
        return False
    try:
        blob = joined.encode("utf-8")
    except UnicodeEncodeError:
        return False
    if len(blob) > 65535:
        return False
    return bytes((_TAG_MAPLAYOUT, len(kt))) + _U16.pack(len(blob)) + blob


def _unpack_value(buf: bytes, i: int, depth: int = 0) -> tuple[Any, int]:
    """Decode one value at offset ``i``; returns ``(value, next offset)``.

    Fails closed with :class:`ProtocolError` on any malformed byte.
    """
    if depth > _MAX_DEPTH:
        raise ProtocolError("binary frame nests deeper than the ceiling")
    try:
        tag = buf[i]
    except IndexError:
        raise ProtocolError("binary frame body is truncated") from None
    i += 1
    # Dispatch in measured frequency order: ints, scalar singletons and
    # interned strings first (response payload values), then strings,
    # then the containers.
    if tag < 0x80:
        return tag, i
    if tag == _TAG_COMMON:
        try:
            idx = buf[i]
        except IndexError:
            raise ProtocolError("binary frame body is truncated") from None
        if idx >= len(COMMON_STRINGS):
            raise ProtocolError(f"unknown interned-string index {idx}")
        return COMMON_STRINGS[idx], i + 1
    if tag == _TAG_NIL:
        return None, i
    if tag == _TAG_TRUE:
        return True, i
    if tag == _TAG_FALSE:
        return False, i
    if 0xA0 <= tag < 0xC0:  # fixstr
        return _take_str(buf, i, tag & 0x1F)
    if tag == _TAG_F64:
        if len(buf) < i + 8:
            raise ProtocolError("binary frame body is truncated")
        return _F64.unpack_from(buf, i)[0], i + 8
    if tag >= 0xE0:  # negative fixint
        return tag - 256, i
    if tag == _TAG_STRVEC:
        if len(buf) < i + 5:
            raise ProtocolError("binary frame body is truncated")
        n = buf[i]
        if not 0 < n <= _MAX_STRVEC:
            raise ProtocolError(f"string-vector count {n} is out of range")
        (blen,) = _U32.unpack_from(buf, i + 1)
        i += 5
        end = i + blen
        if end > len(buf):
            raise ProtocolError("binary frame body is truncated")
        try:
            cells = buf[i:end].decode("utf-8").split(_SEP)
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"invalid UTF-8 in binary frame: {exc}") from exc
        if len(cells) != n:
            raise ProtocolError(
                f"string-vector blob holds {len(cells)} cells, "
                f"header announced {n}"
            )
        return cells, end
    if tag == _TAG_MAPLAYOUT:
        if len(buf) < i + 3:
            raise ProtocolError("binary frame body is truncated")
        n = buf[i]
        (blen,) = _U16.unpack_from(buf, i + 1)
        i += 3
        end = i + blen
        if end > len(buf):
            raise ProtocolError("binary frame body is truncated")
        blob = buf[i:end]
        keys = _KEY_TUPLES.get(blob)
        if keys is None:
            try:
                keys = tuple(blob.decode("utf-8").split(_SEP))
            except UnicodeDecodeError as exc:
                raise ProtocolError(
                    f"invalid UTF-8 in binary frame: {exc}"
                ) from exc
            if len(_KEY_TUPLES) < _MAX_LAYOUT_CACHE:
                _KEY_TUPLES[bytes(blob)] = keys
        if len(keys) != n:
            raise ProtocolError(
                f"map-layout blob holds {len(keys)} keys, "
                f"header announced {n}"
            )
        i = end
        out_m: dict[str, Any] = {}
        end_of = len(buf)
        # Scalars inline, mirroring the encode loop: response payload
        # values are mostly fixints, singletons and short strings, and a
        # per-value call into ``_unpack_value`` would dominate their cost.
        for k in keys:
            if i >= end_of:
                raise ProtocolError("binary frame body is truncated")
            t2 = buf[i]
            if t2 < 0x80:
                out_m[k] = t2
                i += 1
                continue
            if 0xA0 <= t2 < 0xC0:  # fixstr
                j = i + 1 + (t2 & 0x1F)
                if j > end_of:
                    raise ProtocolError("binary frame body is truncated")
                try:
                    out_m[k] = buf[i + 1:j].decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ProtocolError(
                        f"invalid UTF-8 in binary frame: {exc}"
                    ) from exc
                i = j
                continue
            if t2 == _TAG_COMMON and i + 1 < end_of:
                idx = buf[i + 1]
                if idx >= len(COMMON_STRINGS):
                    raise ProtocolError(f"unknown interned-string index {idx}")
                out_m[k] = COMMON_STRINGS[idx]
                i += 2
                continue
            if t2 == _TAG_NIL:
                out_m[k] = None
                i += 1
                continue
            if t2 == _TAG_TRUE:
                out_m[k] = True
                i += 1
                continue
            if t2 == _TAG_FALSE:
                out_m[k] = False
                i += 1
                continue
            if t2 == _TAG_F64:
                if i + 9 > end_of:
                    raise ProtocolError("binary frame body is truncated")
                out_m[k] = _F64.unpack_from(buf, i + 1)[0]
                i += 9
                continue
            if t2 == 0x90:  # empty fixarray
                out_m[k] = []
                i += 1
                continue
            if t2 == 0x80:  # empty fixmap
                out_m[k] = {}
                i += 1
                continue
            if t2 == _TAG_STRVEC:  # belief paths, column name lists
                if i + 6 > end_of:
                    raise ProtocolError("binary frame body is truncated")
                nv = buf[i + 1]
                if not 0 < nv <= _MAX_STRVEC:
                    raise ProtocolError(
                        f"string-vector count {nv} is out of range"
                    )
                (blen,) = _U32.unpack_from(buf, i + 2)
                j = i + 6 + blen
                if j > end_of:
                    raise ProtocolError("binary frame body is truncated")
                try:
                    cells = buf[i + 6:j].decode("utf-8").split(_SEP)
                except UnicodeDecodeError as exc:
                    raise ProtocolError(
                        f"invalid UTF-8 in binary frame: {exc}"
                    ) from exc
                if len(cells) != nv:
                    raise ProtocolError(
                        f"string-vector blob holds {len(cells)} cells, "
                        f"header announced {nv}"
                    )
                out_m[k] = cells
                i = j
                continue
            out_m[k], i = _unpack_value(buf, i, depth + 1)
        return out_m, i
    if tag < 0x90:  # fixmap (rare: only non-layout-encodable key sets)
        out: dict[str, Any] = {}
        n_entries = tag & 0x0F
        end_of = len(buf)
        for _ in range(n_entries):
            # Inline fast path for interned-string keys — the dominant
            # key encoding in response payloads.
            if i + 1 < end_of and buf[i] == _TAG_COMMON:
                idx = buf[i + 1]
                if idx >= len(COMMON_STRINGS):
                    raise ProtocolError(f"unknown interned-string index {idx}")
                k = COMMON_STRINGS[idx]
                i += 2
            else:
                k, i = _unpack_value(buf, i, depth + 1)
                if type(k) is not str:
                    raise ProtocolError("binary map key is not a string")
            v, i = _unpack_value(buf, i, depth + 1)
            out[k] = v
        return out, i
    if tag < 0xA0:  # fixarray (rare: mixed-type or separator-bearing)
        arr: list[Any] = []
        append = arr.append
        for _ in range(tag & 0x0F):
            v, i = _unpack_value(buf, i, depth + 1)
            append(v)
        return arr, i
    if tag == _TAG_JSON:
        if len(buf) < i + 4:
            raise ProtocolError("binary frame body is truncated")
        (n,) = _U32.unpack_from(buf, i)
        i += 4
        if len(buf) < i + n:
            raise ProtocolError("binary frame body is truncated")
        try:
            return json.loads(buf[i:i + n].decode("utf-8")), i + n
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(
                f"JSON subtree in binary frame is invalid: {exc}"
            ) from exc
    if tag == _TAG_U16:
        if len(buf) < i + 2:
            raise ProtocolError("binary frame body is truncated")
        return _U16.unpack_from(buf, i)[0], i + 2
    if tag == _TAG_I64:
        if len(buf) < i + 8:
            raise ProtocolError("binary frame body is truncated")
        return _I64.unpack_from(buf, i)[0], i + 8
    if tag == _TAG_STR8:
        try:
            n = buf[i]
        except IndexError:
            raise ProtocolError("binary frame body is truncated") from None
        return _take_str(buf, i + 1, n)
    if tag == _TAG_STR16:
        if len(buf) < i + 2:
            raise ProtocolError("binary frame body is truncated")
        (n,) = _U16.unpack_from(buf, i)
        return _take_str(buf, i + 2, n)
    if tag == _TAG_STR32:
        if len(buf) < i + 4:
            raise ProtocolError("binary frame body is truncated")
        (n,) = _U32.unpack_from(buf, i)
        return _take_str(buf, i + 4, n)
    if tag == _TAG_ARR16:
        if len(buf) < i + 2:
            raise ProtocolError("binary frame body is truncated")
        (n,) = _U16.unpack_from(buf, i)
        i += 2
        arr2: list[Any] = []
        append = arr2.append
        for _ in range(n):
            v, i = _unpack_value(buf, i, depth + 1)
            append(v)
        return arr2, i
    if tag == _TAG_MAP16:
        if len(buf) < i + 2:
            raise ProtocolError("binary frame body is truncated")
        (n,) = _U16.unpack_from(buf, i)
        i += 2
        out2: dict[str, Any] = {}
        for _ in range(n):
            k, i = _unpack_value(buf, i, depth + 1)
            if type(k) is not str:
                raise ProtocolError("binary map key is not a string")
            v, i = _unpack_value(buf, i, depth + 1)
            out2[k] = v
        return out2, i
    raise ProtocolError(f"unknown binary value tag 0x{tag:02x}")


def _take_str(buf: bytes, i: int, n: int) -> tuple[str, int]:
    j = i + n
    if j > len(buf):
        raise ProtocolError("binary frame body is truncated")
    try:
        return buf[i:j].decode("utf-8"), j
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"invalid UTF-8 in binary frame: {exc}") from exc


# ---------------------------------------------------------------- codecs


class BinaryCodec:
    """The binary-v1 framing for one connection.

    One instance per connection: :meth:`encode` builds frames into a
    reused ``bytearray`` (the buffer-reuse half of the win — no fresh
    allocation ramp per frame), so an instance must not be shared across
    concurrently-encoding connections. Decoding is stateless.
    """

    name = CODEC_BINARY

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    # ------------------------------------------------------------ encode

    def encode(
        self, payload: dict[str, Any], max_frame_bytes: int | None = None
    ) -> bytes:
        """Serialize one frame (header + body); same contract as
        :func:`repro.server.protocol.encode_frame` — a body over the
        ceiling raises the typed :class:`FrameTooLargeError` before any
        byte reaches the wire."""
        limit = (
            protocol.MAX_FRAME_BYTES
            if max_frame_bytes is None
            else int(max_frame_bytes)
        )
        buf = self._buf
        del buf[:]
        buf += _HEADER_PAD
        try:
            kind, rid = self._encode_body(buf, payload)
        except _Unshaped:
            del buf[HEADER_SIZE:]
            kind, rid = self._encode_json_escape(buf, payload)
        except RecursionError:
            raise ProtocolError("payload nests too deeply to encode") from None
        body_len = len(buf) - HEADER_SIZE
        if body_len > limit:
            raise FrameTooLargeError(
                f"frame of {body_len} bytes exceeds the frame ceiling "
                f"({limit} bytes)"
            )
        _HEADER.pack_into(buf, 0, MAGIC, VERSION, kind, rid, body_len)
        return bytes(buf)

    def _encode_body(
        self, buf: bytearray, payload: dict[str, Any]
    ) -> tuple[int, int]:
        """Append the body for a shaped payload; return (kind, header id).

        Raises :class:`_Unshaped` whenever the payload strays from the
        two known frame shapes — the caller then escapes to JSON, which
        preserves the *exact* semantics the JSON codec would have had
        (including server-side validation errors for malformed frames).
        """
        if type(payload) is not dict:
            raise _Unshaped("payload is not an object")
        keys = payload.keys()
        if "op" in keys:
            if not keys <= _REQ_KEYS or "id" not in keys:
                raise _Unshaped("not a request shape")
            rid = payload["id"]
            if type(rid) is not int or not _INT64_MIN <= rid <= _INT64_MAX:
                raise _Unshaped("request id does not fit the header")
            enc = _OP_ENC.get(payload["op"])
            if enc is None:
                raise _Unshaped("op has no binary op-code")
            code, layout, layout_set = enc
            params = payload.get("params", {})
            if type(params) is not dict or not params.keys() <= layout_set:
                raise _Unshaped("params outside the op's layout")
            mask = 0
            buf.append(0)  # presence bitmask, patched below
            mask_at = len(buf) - 1
            # Scalars inline, as in the map-layout value loop.
            for bit, name in enumerate(layout):
                if name not in params:
                    continue
                mask |= 1 << bit
                item = params[name]
                ti = type(item)
                if ti is str:
                    ci = _COMMON_CODES.get(item)
                    if ci is not None:
                        buf.append(_TAG_COMMON)
                        buf.append(ci)
                        continue
                    try:
                        b = item.encode("utf-8")
                    except UnicodeEncodeError:
                        raise _Unshaped(
                            "string is not UTF-8-encodable"
                        ) from None
                    ni = len(b)
                    if ni < 32:
                        buf.append(0xA0 | ni)
                        buf += b
                        continue
                elif ti is int:
                    if 0 <= item < 128:
                        buf.append(item)
                        continue
                elif item is None:
                    buf.append(_TAG_NIL)
                    continue
                elif ti is bool:
                    buf.append(_TAG_TRUE if item else _TAG_FALSE)
                    continue
                elif ti is list:
                    n2 = len(item)
                    if 0 < n2 <= _MAX_STRVEC:
                        try:
                            joined = _SEP.join(item)
                            blob = joined.encode("utf-8")
                        except (TypeError, UnicodeEncodeError):
                            joined = None
                        if (
                            joined is not None
                            and joined.count(_SEP) == n2 - 1
                        ):
                            buf.append(_TAG_STRVEC)
                            buf.append(n2)
                            buf += _U32.pack(len(blob))
                            buf += blob
                            continue
                _pack_value(buf, item)
            buf[mask_at] = mask
            return code, rid
        if "ok" in keys:
            if not keys <= _RESP_KEYS or "id" not in keys:
                raise _Unshaped("not a response shape")
            rid = payload["id"]
            ok = payload["ok"]
            if type(rid) is not int or not _INT64_MIN <= rid <= _INT64_MAX:
                raise _Unshaped("response id does not fit the header")
            if type(ok) is not bool:
                raise _Unshaped("response ok is not a bool")
            if ok:
                if "error" in keys:
                    raise _Unshaped("ok response carries an error")
                result = payload.get("result")
                # Row-matrix results (select/fetch pages) ride the JSON
                # escape whole-frame: one C json pass over the dominant
                # bytes beats compact-packing around an embedded JSON
                # subtree. One cheap type scan decides.
                tr = type(result)
                if tr is dict:
                    for x in result.values():
                        if type(x) is list and x and type(x[0]) is list:
                            raise _Unshaped("result carries a row matrix")
                elif tr is list and result and type(result[0]) is list:
                    raise _Unshaped("result is a row matrix")
                _pack_value(buf, result)
                return KIND_RESPONSE_OK, rid
            error = payload.get("error")
            if (
                "result" in keys
                or type(error) is not dict
                or error.keys() != _ERR_KEYS
                or type(error["type"]) is not str
                or type(error["message"]) is not str
            ):
                raise _Unshaped("malformed error response")
            _pack_value(buf, error["type"])
            _pack_value(buf, error["message"])
            return KIND_RESPONSE_ERR, rid
        raise _Unshaped("neither request nor response shape")

    def _encode_json_escape(
        self, buf: bytearray, payload: dict[str, Any]
    ) -> tuple[int, int]:
        """The whole-frame escape hatch: body = the JSON codec's body."""
        buf += _json_bytes(payload)
        kind = (
            KIND_JSON_RESPONSE
            if isinstance(payload, dict) and "ok" in payload
            else KIND_JSON_REQUEST
        )
        return kind, 0

    # ------------------------------------------------------------ decode

    def decode_frame(
        self, kind: int, request_id: int, body: bytes
    ) -> dict[str, Any]:
        """Rebuild the payload dict a JSON peer would have sent."""
        if kind in (KIND_JSON_REQUEST, KIND_JSON_RESPONSE):
            return protocol._parse_body(body)
        if kind == KIND_RESPONSE_OK:
            result, end = _unpack_value(body, 0)
            if end != len(body):
                raise ProtocolError(
                    f"binary frame has {len(body) - end} trailing bytes"
                )
            return {"id": request_id, "ok": True, "result": result}
        if kind == KIND_RESPONSE_ERR:
            err_type, i = _unpack_value(body, 0)
            message, end = _unpack_value(body, i)
            self._expect_consumed(end, body)
            if type(err_type) is not str or type(message) is not str:
                raise ProtocolError("malformed binary error response")
            return {
                "id": request_id, "ok": False,
                "error": {"type": err_type, "message": message},
            }
        spec = _BY_CODE.get(kind)
        if spec is not None:
            op = spec.name
            if not body:
                raise ProtocolError("binary request frame has no bitmask")
            mask = body[0]
            layout = spec.layout
            if mask >> len(layout):
                raise ProtocolError(
                    f"presence bitmask 0x{mask:02x} exceeds {op!r}'s layout"
                )
            params: dict[str, Any] = {}
            i = 1
            end_of = len(body)
            # The same inline scalar chain as the map-layout decoder:
            # request params are mostly small ints, flags and short names.
            for bit, name in enumerate(layout):
                if not mask & (1 << bit):
                    continue
                if i >= end_of:
                    raise ProtocolError("binary frame body is truncated")
                t2 = body[i]
                if t2 < 0x80:
                    params[name] = t2
                    i += 1
                    continue
                if 0xA0 <= t2 < 0xC0:  # fixstr
                    j = i + 1 + (t2 & 0x1F)
                    if j > end_of:
                        raise ProtocolError("binary frame body is truncated")
                    try:
                        params[name] = body[i + 1:j].decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise ProtocolError(
                            f"invalid UTF-8 in binary frame: {exc}"
                        ) from exc
                    i = j
                    continue
                if t2 == _TAG_COMMON and i + 1 < end_of:
                    idx = body[i + 1]
                    if idx >= len(COMMON_STRINGS):
                        raise ProtocolError(
                            f"unknown interned-string index {idx}"
                        )
                    params[name] = COMMON_STRINGS[idx]
                    i += 2
                    continue
                if t2 == _TAG_NIL:
                    params[name] = None
                    i += 1
                    continue
                if t2 == _TAG_TRUE:
                    params[name] = True
                    i += 1
                    continue
                if t2 == _TAG_FALSE:
                    params[name] = False
                    i += 1
                    continue
                if t2 == _TAG_U16:
                    if i + 3 > end_of:
                        raise ProtocolError("binary frame body is truncated")
                    params[name] = _U16.unpack_from(body, i + 1)[0]
                    i += 3
                    continue
                if t2 == _TAG_STRVEC:  # value rows / belief paths
                    if i + 6 > end_of:
                        raise ProtocolError("binary frame body is truncated")
                    nv = body[i + 1]
                    if not 0 < nv <= _MAX_STRVEC:
                        raise ProtocolError(
                            f"string-vector count {nv} is out of range"
                        )
                    (blen,) = _U32.unpack_from(body, i + 2)
                    j = i + 6 + blen
                    if j > end_of:
                        raise ProtocolError("binary frame body is truncated")
                    try:
                        cells = body[i + 6:j].decode("utf-8").split(_SEP)
                    except UnicodeDecodeError as exc:
                        raise ProtocolError(
                            f"invalid UTF-8 in binary frame: {exc}"
                        ) from exc
                    if len(cells) != nv:
                        raise ProtocolError(
                            f"string-vector blob holds {len(cells)} cells, "
                            f"header announced {nv}"
                        )
                    params[name] = cells
                    i = j
                    continue
                if t2 == _TAG_STR8:  # sql text
                    if i + 2 > end_of:
                        raise ProtocolError("binary frame body is truncated")
                    j = i + 2 + body[i + 1]
                    if j > end_of:
                        raise ProtocolError("binary frame body is truncated")
                    try:
                        params[name] = body[i + 2:j].decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise ProtocolError(
                            f"invalid UTF-8 in binary frame: {exc}"
                        ) from exc
                    i = j
                    continue
                params[name], i = _unpack_value(body, i)
            if i != end_of:
                raise ProtocolError(
                    f"binary frame has {end_of - i} trailing bytes"
                )
            return {"id": request_id, "op": op, "params": params}
        raise ProtocolError(f"unknown binary frame kind 0x{kind:02x}")

    def decode_payload(
        self, frame: bytes, max_frame_bytes: int | None = None
    ) -> dict[str, Any]:
        """Decode one complete in-memory frame (header + body).

        The off-socket counterpart of :meth:`read` — same checks, same
        result — for callers that already hold the whole frame (the wire
        profiler, the round-trip tests).
        """
        try:
            magic, version, kind, rid, length = _HEADER.unpack(
                frame[:HEADER_SIZE]
            )
        except struct.error:
            raise ProtocolError(
                "binary frame is shorter than its 16-byte header"
            ) from None
        if magic != MAGIC:
            raise ProtocolError(
                f"bad binary frame magic {magic!r} (stream desynchronized)"
            )
        if version != VERSION:
            raise ProtocolError(f"unsupported binary protocol version {version}")
        limit = (
            protocol.MAX_FRAME_BYTES
            if max_frame_bytes is None
            else int(max_frame_bytes)
        )
        if length > limit:
            raise ProtocolError(
                f"announced frame of {length} bytes exceeds the frame "
                f"ceiling ({limit} bytes)"
            )
        body = frame[HEADER_SIZE:]
        if len(body) != length:
            raise ProtocolError(
                f"frame body is {len(body)} bytes, header announced {length}"
            )
        return self.decode_frame(kind, rid, body)

    @staticmethod
    def _expect_consumed(end: int, body: bytes) -> None:
        if end != len(body):
            raise ProtocolError(
                f"binary frame has {len(body) - end} trailing bytes"
            )

    @staticmethod
    def _check_header(
        header: bytes, limit: int
    ) -> tuple[int, int, int]:
        magic, version, kind, rid, length = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ProtocolError(
                f"bad binary frame magic {magic!r} (stream desynchronized)"
            )
        if version != VERSION:
            raise ProtocolError(f"unsupported binary protocol version {version}")
        if length > limit:
            raise ProtocolError(
                f"announced frame of {length} bytes exceeds the frame "
                f"ceiling ({limit} bytes)"
            )
        return kind, rid, length

    # --------------------------------------------------------- socket I/O

    def read(
        self, sock: socket.socket, max_frame_bytes: int | None = None
    ) -> dict[str, Any] | None:
        """Read one binary frame; None when the peer closed cleanly."""
        limit = protocol._ceiling(max_frame_bytes)
        header = protocol._read_exact(sock, HEADER_SIZE)
        if header is None:
            return None
        kind, rid, length = self._check_header(header, limit)
        body = protocol._read_exact(sock, length) if length else b""
        if body is None:
            raise ProtocolError("connection closed between header and body")
        return self.decode_frame(kind, rid, body)

    def write(
        self, sock: socket.socket, payload: dict[str, Any],
        max_frame_bytes: int | None = None,
    ) -> None:
        sock.sendall(self.encode(payload, max_frame_bytes))

    # -------------------------------------------------------- asyncio I/O

    async def read_async(
        self, reader: asyncio.StreamReader,
        max_frame_bytes: int | None = None,
    ) -> dict[str, Any] | None:
        limit = protocol._ceiling(max_frame_bytes)
        try:
            header = await reader.readexactly(HEADER_SIZE)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({len(exc.partial)}/"
                f"{HEADER_SIZE} bytes of binary header)"
            ) from exc
        kind, rid, length = self._check_header(header, limit)
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError(
                "connection closed between header and body"
            ) from exc
        return self.decode_frame(kind, rid, body)

    async def write_async(
        self, writer: asyncio.StreamWriter, payload: dict[str, Any],
        max_frame_bytes: int | None = None,
    ) -> None:
        writer.write(self.encode(payload, max_frame_bytes))
        await writer.drain()


class JsonCodec:
    """The length-prefixed JSON framing behind the same codec interface.

    Stateless — one module-level instance (:data:`JSON_CODEC`) serves
    every connection.
    """

    name = CODEC_JSON

    __slots__ = ()

    @staticmethod
    def encode(
        payload: dict[str, Any], max_frame_bytes: int | None = None
    ) -> bytes:
        return protocol.encode_frame(payload, max_frame_bytes)

    @staticmethod
    def decode_payload(
        frame: bytes, max_frame_bytes: int | None = None
    ) -> dict[str, Any]:
        """Decode one complete in-memory frame (4-byte prefix + body)."""
        return protocol.decode_frame(frame[4:])

    @staticmethod
    def read(
        sock: socket.socket, max_frame_bytes: int | None = None
    ) -> dict[str, Any] | None:
        return protocol.read_frame(sock, max_frame_bytes)

    @staticmethod
    def write(
        sock: socket.socket, payload: dict[str, Any],
        max_frame_bytes: int | None = None,
    ) -> None:
        protocol.write_frame(sock, payload, max_frame_bytes)

    @staticmethod
    async def read_async(
        reader: asyncio.StreamReader, max_frame_bytes: int | None = None
    ) -> dict[str, Any] | None:
        return await protocol.read_frame_async(reader, max_frame_bytes)

    @staticmethod
    async def write_async(
        writer: asyncio.StreamWriter, payload: dict[str, Any],
        max_frame_bytes: int | None = None,
    ) -> None:
        await protocol.write_frame_async(writer, payload, max_frame_bytes)


JSON_CODEC = JsonCodec()


def codec_for(name: str) -> Any:
    """A fresh codec instance for a negotiated codec name."""
    if name == CODEC_BINARY:
        return BinaryCodec()
    if name == CODEC_JSON:
        return JSON_CODEC
    raise ProtocolError(f"unknown wire codec {name!r}")


# ----------------------------------------------------------- negotiation


def check_wire_mode(wire: str) -> str:
    if wire not in WIRE_MODES:
        raise ProtocolError(
            f"wire mode must be one of {WIRE_MODES}, got {wire!r}"
        )
    return wire


def server_codecs(wire: str) -> tuple[str, ...]:
    """What a server in the given mode advertises (JSON is always the
    floor — even ``binary`` mode keeps serving never-negotiating JSON
    clients; the mode only shapes the hello answer)."""
    if wire == "json":
        return (CODEC_JSON,)
    return (CODEC_BINARY, CODEC_JSON)


def client_offer(wire: str) -> list[str]:
    """The codec list a client sends in its hello, preference order."""
    if wire == "json":
        return [CODEC_JSON]
    return [CODEC_BINARY, CODEC_JSON]


def choose_codec(offered: Any, supported: tuple[str, ...]) -> str:
    """The server's pick: the client's first offer the server supports.

    Anything unrecognized falls through to JSON — negotiation can only
    ever *upgrade* from the floor, never strand a peer.
    """
    if isinstance(offered, (list, tuple)):
        for name in offered:
            if name in supported:
                return str(name)
    return CODEC_JSON


def hello_result(wire: str, offered: Any) -> dict[str, Any]:
    """The result payload of a successful ``hello`` response."""
    supported = server_codecs(wire)
    return {
        "codecs": list(supported),
        "codec": choose_codec(offered, supported),
        "version": VERSION,
    }
