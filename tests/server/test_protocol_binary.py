"""binary-v1 property suite: round-trip equivalence + adversarial frames.

Two families of guarantees pin the negotiated binary codec
(:mod:`repro.server.binproto`) to the JSON compatibility floor:

* **Equivalence** — for every payload either codec will carry, decoding
  the binary frame yields *exactly* what a JSON peer would have received
  (``json.loads(json.dumps(payload))``). Hypothesis drives this over the
  full payload space: every value shape, separator bytes inside cells
  and keys, unpaired surrogates, huge ints, deep nesting — whatever the
  compact encoding cannot carry must ride the JSON escape hatch, never
  crash, and never change meaning.

* **Fail closed** — adversarial bytes (bad magic, wrong version,
  truncated header or body, oversized announced length, unknown kinds
  and tags, counts that lie, bitmask overflow, over-deep nesting,
  trailing garbage, mid-handshake disconnects) always surface as the
  typed :class:`ProtocolError` or a clean close — never a stray
  exception, never a hang, and never a crashed server.

CI runs this file under the raised ``protocol-fuzz`` hypothesis profile
(see ``tests/conftest.py``).
"""

from __future__ import annotations

import json
import socket
import struct

import pytest
from hypothesis import given, strategies as st

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.server import BeliefClient, BeliefServer
from repro.server import binproto, protocol
from repro.server.binproto import (
    COMMON_STRINGS,
    HEADER_SIZE,
    KIND_JSON_REQUEST,
    KIND_RESPONSE_ERR,
    KIND_RESPONSE_OK,
    MAGIC,
    VERSION,
    BinaryCodec,
    JSON_CODEC,
)
from repro.server.protocol import OPS, ProtocolError

_HEADER = struct.Struct(">2sBBqI")


def frame_of(kind: int, rid: int, body: bytes) -> bytes:
    """Hand-build a binary frame around an arbitrary body."""
    return _HEADER.pack(MAGIC, VERSION, kind, rid, len(body)) + body


# ------------------------------------------------------------- strategies

# Scalars both codecs must agree on. NaN is excluded (NaN != NaN makes
# equality meaningless); infinities and unpaired surrogates stay in.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(
        alphabet=st.characters(
            codec="utf-16", min_codepoint=0, max_codepoint=0x10FFFF
        ),
        max_size=40,
    ),
    st.sampled_from(COMMON_STRINGS),
    st.sampled_from(["a\x1fb", "\x1f", "x" * 300, ""]),
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=20),
        st.dictionaries(st.text(max_size=12), children, max_size=12),
    ),
    max_leaves=25,
)

_ids = st.integers(min_value=-(2**70), max_value=2**70)

_requests = st.fixed_dictionaries({
    "id": _ids,
    "op": st.one_of(
        st.sampled_from(sorted(OPS)), st.text(max_size=12)
    ),
    "params": st.dictionaries(st.text(max_size=12), _values, max_size=10),
})

_ok_responses = st.fixed_dictionaries(
    {"id": _ids, "ok": st.just(True), "result": _values}
)

_err_responses = st.fixed_dictionaries({
    "id": _ids,
    "ok": st.just(False),
    "error": st.fixed_dictionaries(
        {"type": st.text(max_size=20), "message": st.text(max_size=60)}
    ),
})

_payloads = st.one_of(_requests, _ok_responses, _err_responses)


def json_view(payload: dict) -> dict:
    """What a JSON peer receives for this payload."""
    return json.loads(json.dumps(payload))


# ------------------------------------------------- round-trip equivalence


@given(_payloads)
def test_binary_round_trip_matches_json(payload):
    codec = BinaryCodec()
    want = json_view(payload)
    assert codec.decode_payload(codec.encode(payload, None)) == want
    assert JSON_CODEC.decode_payload(JSON_CODEC.encode(payload, None)) == want


@given(_values)
def test_arbitrary_results_round_trip(result):
    codec = BinaryCodec()
    payload = {"id": 7, "ok": True, "result": result}
    assert codec.decode_payload(codec.encode(payload, None)) == (
        json_view(payload)
    )


@given(st.sampled_from(sorted(OPS)), _values)
def test_any_op_with_one_odd_param_round_trips(op, value):
    """Params outside the layout (or odd values inside it) still travel."""
    codec = BinaryCodec()
    layout = OPS[op].layout
    name = layout[0] if layout else "surprise"
    payload = {"id": 3, "op": op, "params": {name: value}}
    assert codec.decode_payload(codec.encode(payload, None)) == (
        json_view(payload)
    )


def test_encode_is_deterministic_and_buffer_reuse_is_clean():
    codec = BinaryCodec()
    a = {"id": 1, "op": "ping", "params": {}}
    b = {"id": 2, "ok": True, "result": {"kind": "select", "rowcount": 9}}
    first = codec.encode(a, None)
    codec.encode(b, None)  # different shape resizes the reuse buffer
    assert codec.encode(a, None) == first


# ------------------------------------------------------------ fail closed


def _reject(frame: bytes) -> None:
    with pytest.raises(ProtocolError):
        BinaryCodec().decode_payload(frame)


def test_bad_magic_rejected():
    good = BinaryCodec().encode({"id": 1, "op": "ping", "params": {}}, None)
    _reject(b"XX" + good[2:])


def test_wrong_version_rejected():
    body = b"\x00"
    _reject(_HEADER.pack(MAGIC, VERSION + 1, 1, 1, len(body)) + body)


@pytest.mark.parametrize("cut", [0, 1, 8, HEADER_SIZE - 1])
def test_truncated_header_rejected(cut):
    good = BinaryCodec().encode({"id": 1, "op": "ping", "params": {}}, None)
    _reject(good[:cut])


def test_truncated_body_rejected():
    good = BinaryCodec().encode(
        {"id": 5, "ok": True, "result": "pong"}, None
    )
    _reject(good[:-1])


def test_announced_length_over_ceiling_rejected():
    _reject(_HEADER.pack(MAGIC, VERSION, KIND_RESPONSE_OK, 1, 2**31))


def test_unknown_kind_rejected():
    _reject(frame_of(0xDD, 1, b"\xc0"))


def test_trailing_bytes_rejected():
    _reject(frame_of(KIND_RESPONSE_OK, 1, b"\xc0\x00"))


def test_bitmask_overflow_rejected():
    # ping's layout is empty: any presence bit is out of range.
    _reject(frame_of(binproto.OP_CODES["ping"], 1, b"\x01\x07"))


def test_unknown_interned_string_rejected():
    _reject(frame_of(KIND_RESPONSE_OK, 1, bytes([0xC6, 250])))


def test_strvec_count_mismatch_rejected():
    blob = "a\x1fb".encode()
    body = bytes([0xC4, 5]) + struct.pack(">I", len(blob)) + blob
    _reject(frame_of(KIND_RESPONSE_OK, 1, body))


def test_maplayout_count_mismatch_rejected():
    blob = "a\x1fb".encode()
    body = (
        bytes([0xC8, 3]) + struct.pack(">H", len(blob)) + blob + b"\x01\x02"
    )
    _reject(frame_of(KIND_RESPONSE_OK, 1, body))


def test_depth_ceiling_rejected():
    # Natural payloads this deep escape to JSON on encode, so the only
    # way to reach the decoder's recursion guard is a handcrafted body:
    # 40 nested single-element fixarrays around one NIL.
    body = b"\x91" * 40 + b"\xc0"
    _reject(frame_of(KIND_RESPONSE_OK, 1, body))


def test_error_response_with_nonstring_fields_rejected():
    _reject(frame_of(KIND_RESPONSE_ERR, 1, b"\x01\x02"))


def test_json_escape_with_invalid_json_rejected():
    _reject(frame_of(KIND_JSON_REQUEST, 0, b"{nope"))


@given(st.sampled_from(
    [KIND_RESPONSE_OK, KIND_RESPONSE_ERR, KIND_JSON_REQUEST, 0x08, 0xDD]
), st.binary(max_size=64))
def test_random_bodies_decode_or_raise_protocol_error(kind, body):
    """No body bytes may escape as anything but ProtocolError."""
    try:
        BinaryCodec().decode_payload(frame_of(kind, 1, body))
    except ProtocolError:
        pass


@given(st.binary(max_size=96))
def test_random_frames_decode_or_raise_protocol_error(blob):
    try:
        BinaryCodec().decode_payload(blob)
    except ProtocolError:
        pass


# -------------------------------------------- live server under bad bytes


@pytest.fixture
def server():
    with BeliefServer(BeliefDBMS(sightings_schema())) as srv:
        yield srv


def _raw(server) -> socket.socket:
    sock = socket.create_connection(server.address, timeout=5)
    sock.settimeout(5)
    return sock


def test_mid_handshake_disconnect_leaves_server_healthy(server):
    # Half a hello frame, then a hard close mid-header.
    hello = BinaryCodec().encode(
        {"id": 0, "op": "hello", "params": {"codecs": ["binary-v1"]}}, None
    )
    for cut in (3, HEADER_SIZE, len(hello) - 2):
        sock = _raw(server)
        sock.sendall(hello[:cut])
        sock.close()
    with BeliefClient(*server.address) as c:
        assert c.ping()


def test_binary_garbage_before_hello_gets_clean_close(server):
    # A JSON-mode connection that sends binary-framed garbage: the JSON
    # reader sees an insane length prefix and must close, not hang.
    sock = _raw(server)
    sock.sendall(_HEADER.pack(MAGIC, VERSION, 0x05, 1, 12) + b"x" * 12)
    try:
        assert sock.recv(4096) == b""  # FIN — or RST, both are a close
    except ConnectionResetError:
        pass
    sock.close()
    with BeliefClient(*server.address) as c:
        assert c.ping()


# --------------------------------------------------- wire-format contracts


def test_op_codes_come_from_the_one_op_table():
    # The golden codes/layouts and the table's well-formedness live in
    # tests/server/test_op_table.py; here: the codec derives its tables
    # from the registry and adds nothing of its own.
    assert binproto.OP_CODES == {
        spec.name: spec.code
        for spec in protocol.OP_TABLE if spec.code is not None
    }
    assert binproto.OP_CODES[binproto.HELLO_OP] == 0x00
    # The retired execute keeps 0x0A, so every later op keeps its code ...
    assert binproto.OP_CODES["execute"] == 0x0A
    assert binproto.OP_CODES["prepare"] == 0x0B
    assert binproto.OP_CODES["shard_status"] == 0x1C
    # ... but nothing serves it: dispatch answers "unknown operation".
    assert "execute" not in OPS


def test_ops_missing_from_table_still_travel():
    codec = BinaryCodec()
    payload = {"id": 1, "op": "brand_new_op", "params": {"x": 1}}
    assert codec.decode_payload(codec.encode(payload, None)) == payload


def test_common_strings_fit_one_byte_and_are_unique():
    assert len(COMMON_STRINGS) <= 256
    assert len(set(COMMON_STRINGS)) == len(COMMON_STRINGS)
