"""Wire-protocol round trips and fail-closed rejection of bad frames."""

from __future__ import annotations

import socket
import struct
import threading

import pytest

from repro.errors import FrameTooLargeError
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    Request,
    Response,
    decode_frame,
    encode_frame,
    read_frame,
    write_frame,
)

# ---------------------------------------------------------------- round trips


REQUESTS = [
    Request(id=1, op="ping"),
    Request(id=2, op="login", params={"user": "Carol", "create": True}),
    Request(id=3, op="insert", params={
        "relation": "Sightings",
        "values": ["s1", 3, "bald eagle", "6-14-08", "Lake Forest"],
        "path": None,
        "sign": "+",
    }),
    Request(id=4, op="prepare", params={"sql": "select S.sid from Sightings as S"}),
    Request(id=2 ** 40, op="stats", params={}),
]

RESPONSES = [
    Response.success(1, "pong"),
    Response.success(2, {"user": 3, "user_name": "Carol", "default_path": [3]}),
    Response.success(3, True),
    Response.success(4, [["s1", "bald eagle"], ["s2", "crow"]]),
    Response.failure(5, ValueError("boom")),
    Response.failure(6, ProtocolError("bad frame")),
]


def _round_trip(payload: dict) -> dict:
    """encode -> strip the 4-byte length prefix -> decode."""
    return decode_frame(encode_frame(payload)[4:])


@pytest.mark.parametrize("request_", REQUESTS, ids=lambda r: f"req-{r.op}")
def test_request_round_trip(request_):
    assert Request.from_wire(_round_trip(request_.to_wire())) == request_


@pytest.mark.parametrize("response", RESPONSES, ids=lambda r: f"resp-{r.id}")
def test_response_round_trip(response):
    assert Response.from_wire(_round_trip(response.to_wire())) == response


def test_failure_response_carries_type_and_message():
    response = Response.failure(9, ValueError("boom"))
    assert response.error == {"type": "ValueError", "message": "boom"}
    assert not response.ok


def test_encoded_frame_has_length_prefix():
    frame = encode_frame({"id": 1, "op": "ping", "params": {}})
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4


# ----------------------------------------------------------------- fail closed


@pytest.mark.parametrize("body", [
    b"not json at all",
    b"\xff\xfe garbage bytes",
    b"[1, 2, 3]",          # valid JSON, wrong shape (not an object)
    b'"just a string"',
    b"42",
])
def test_garbage_bodies_rejected(body):
    with pytest.raises(ProtocolError):
        decode_frame(body)


@pytest.mark.parametrize("payload", [
    {},                                         # missing everything
    {"id": 1},                                  # missing op
    {"op": "ping"},                             # missing id
    {"id": "one", "op": "ping"},                # id not an int
    {"id": True, "op": "ping"},                 # bool is not an acceptable id
    {"id": 1, "op": 7},                         # op not a string
    {"id": 1, "op": "ping", "params": []},      # params not an object
    {"id": 1, "op": "ping", "extra": "field"},  # unknown field
])
def test_malformed_requests_rejected(payload):
    with pytest.raises(ProtocolError):
        Request.from_wire(payload)


@pytest.mark.parametrize("payload", [
    {"id": 1},                                   # missing ok
    {"id": 1, "ok": "yes"},                      # ok not a bool
    {"id": None, "ok": True},                    # id not an int
    {"id": 1, "ok": False},                      # failure without error payload
    {"id": 1, "ok": False, "error": "boom"},     # error not an object
    {"id": 1, "ok": False, "error": {"type": "E"}},  # error missing message
    {"id": 1, "ok": True, "bogus": 1},           # unknown field
])
def test_malformed_responses_rejected(payload):
    with pytest.raises(ProtocolError):
        Response.from_wire(payload)


def test_oversized_payload_rejected_on_encode():
    huge = {"id": 1, "op": "prepare",
            "params": {"sql": "x" * (MAX_FRAME_BYTES + 1)}}
    with pytest.raises(FrameTooLargeError, match="frame ceiling"):
        encode_frame(huge)


def test_oversized_body_rejected_on_decode():
    with pytest.raises(FrameTooLargeError, match="frame ceiling"):
        decode_frame(b"x" * (MAX_FRAME_BYTES + 1))


def test_frame_ceiling_is_configurable():
    payload = {"id": 1, "op": "prepare", "params": {"sql": "x" * 4096}}
    with pytest.raises(FrameTooLargeError, match="frame ceiling"):
        encode_frame(payload, max_frame_bytes=1024)
    # The same payload frames fine under the default ceiling ...
    frame = encode_frame(payload)
    # ... and a raised ceiling admits bodies the default would reject.
    big = {"id": 1, "op": "prepare",
           "params": {"sql": "x" * (MAX_FRAME_BYTES + 1)}}
    assert decode_frame(
        encode_frame(big, max_frame_bytes=4 * MAX_FRAME_BYTES)[4:],
        max_frame_bytes=4 * MAX_FRAME_BYTES,
    )["params"]["sql"]
    assert len(frame) < MAX_FRAME_BYTES


def test_unserializable_payload_rejected():
    with pytest.raises(ProtocolError):
        encode_frame({"id": 1, "op": "ping", "params": {"bad": object()}})


# ------------------------------------------------------------------ socket I/O


def _socket_pair():
    return socket.socketpair()


def test_socket_round_trip():
    a, b = _socket_pair()
    try:
        payload = {"id": 7, "op": "ping", "params": {}}
        write_frame(a, payload)
        assert read_frame(b) == payload
    finally:
        a.close()
        b.close()


def test_read_frame_returns_none_on_clean_eof():
    a, b = _socket_pair()
    a.close()
    try:
        assert read_frame(b) is None
    finally:
        b.close()


def test_oversized_announced_length_rejected_without_allocation():
    a, b = _socket_pair()
    try:
        a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError):
            read_frame(b)
    finally:
        a.close()
        b.close()


def test_truncated_frame_rejected():
    a, b = _socket_pair()
    try:
        frame = encode_frame({"id": 1, "op": "ping", "params": {}})
        a.sendall(frame[: len(frame) - 3])
        a.close()
        with pytest.raises(ProtocolError):
            read_frame(b)
    finally:
        b.close()


def test_eof_between_prefix_and_body_rejected():
    a, b = _socket_pair()
    try:
        a.sendall(struct.pack(">I", 10))
        a.close()
        with pytest.raises(ProtocolError):
            read_frame(b)
    finally:
        b.close()


def test_many_frames_on_one_stream():
    a, b = _socket_pair()
    try:
        frames = [{"id": i, "op": "ping", "params": {}} for i in range(50)]
        writer = threading.Thread(
            target=lambda: [write_frame(a, f) for f in frames]
        )
        writer.start()
        received = [read_frame(b) for _ in frames]
        writer.join()
        assert received == frames
    finally:
        a.close()
        b.close()
