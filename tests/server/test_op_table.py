"""The one op registry (``repro.server.protocol.OP_TABLE``).

Three contracts: the binary-v1 wire format the table fixes cannot move
silently (golden codes and layouts); every row resolves to a handler on
both server cores and the shard router, and no handler exists without a
row; and dispatch really takes the guard, the in-transaction refusal and
the shed exemption from the row.
"""

from __future__ import annotations

import pytest

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.errors import ServerOverloadedError, TransactionError
from repro.server import AsyncBeliefServer, BeliefServer, ClientSession
from repro.server import binproto, protocol
from repro.server.binproto import (
    KIND_JSON_REQUEST,
    KIND_RESPONSE_OK,
    BinaryCodec,
)
from repro.server.protocol import OP_TABLE, OPS, Request
from repro.shard.router import BeliefRouter

_TUPLE = ("relation", "values", "path", "sign")

#: binary-v1 wire format, 0x00-0x1C: (code, op, positional layout).
#: Append-only. A row that changes here changes what old peers decode.
GOLDEN = [
    (0x00, "hello", ("codecs", "version")),
    (0x01, "ping", ()),
    (0x02, "login", ("user", "create")),
    (0x03, "logout", ()),
    (0x04, "whoami", ()),
    (0x05, "set_path", ("path",)),
    (0x06, "add_user", ("name",)),
    (0x07, "users", ()),
    (0x08, "insert", _TUPLE),  # retired; the slot stays reserved
    (0x09, "delete", _TUPLE),  # retired; the slot stays reserved
    (0x0A, "execute", ("sql",)),  # retired; the slot stays reserved
    (0x0B, "prepare", ("sql",)),
    (0x0C, "execute_prepared", ("stmt", "sql", "params", "max_rows")),
    (0x0D, "execute_batch", ("stmt", "sql", "param_rows")),
    (0x0E, "close_statement", ("stmt",)),
    (0x0F, "fetch", ("cursor", "n")),
    (0x10, "close_cursor", ("cursor",)),
    (0x11, "begin", ()),
    (0x12, "commit", ()),
    (0x13, "rollback", ()),
    (0x14, "query", ("bcq",)),  # retired; the slot stays reserved
    (0x15, "believes", _TUPLE),
    (0x16, "world", ("path",)),
    (0x17, "worlds", ()),
    (0x18, "stats", ()),
    (0x19, "metrics", ()),
    (0x1A, "kripke", ()),
    (0x1B, "describe", ()),
    (0x1C, "shard_status", ()),
]


def _methods(cls: type, prefix: str) -> set[str]:
    return {
        name[len(prefix):] for name in dir(cls)
        if name.startswith(prefix) and callable(getattr(cls, name))
    }


# ------------------------------------------------------------- wire format


def test_codes_and_layouts_are_the_golden_list():
    coded = sorted(
        (spec.code, spec.name, spec.layout)
        for spec in OP_TABLE if spec.code is not None
    )
    assert coded == GOLDEN
    assert binproto.OP_CODES == {name: code for code, name, _ in GOLDEN}


def test_table_is_well_formed():
    names = [spec.name for spec in OP_TABLE]
    assert len(set(names)) == len(names)
    codes = [spec.code for spec in OP_TABLE if spec.code is not None]
    assert sorted(codes) == list(range(len(codes)))  # dense, unique
    assert max(codes) < KIND_RESPONSE_OK  # below the reserved frame kinds
    for spec in OP_TABLE:
        assert len(spec.layout) <= 8, f"{spec.name}: one bitmask byte"
        assert len(set(spec.layout)) == len(spec.layout)
        assert spec.lock in (None, "none", "pinned", "read", "write")
        assert spec.route in (None, "local", "by_path", "fanout", "custom")
        # An op without a code says out loud that it rides the escape.
        assert spec.code is not None or spec.json_escape, spec.name
    # Served = everything but the transport-level hello and the retired ops.
    assert set(names) - set(OPS) == {
        "hello", "insert", "delete", "execute", "query",
    }


def test_json_escape_is_what_the_table_says():
    codec = BinaryCodec()
    for spec in OPS.values():
        params = {name: 1 for name in spec.layout}
        frame = codec.encode({"id": 1, "op": spec.name, "params": params})
        kind = frame[3]
        if spec.json_escape:
            assert kind == KIND_JSON_REQUEST, spec.name
        else:
            assert kind == spec.code, spec.name
        assert codec.decode_payload(frame) == {
            "id": 1, "op": spec.name, "params": params,
        }
    assert {s.name for s in OPS.values() if s.json_escape} == {
        "execute_batch", "lifecycle", "audit",
    }
    # A positional execute_batch frame (a foreign encoder) still decodes.
    code = binproto.OP_CODES["execute_batch"]
    frame = bytearray(codec.encode({"id": 2, "op": "prepare",
                                    "params": {"sql": "x"}}))
    frame[3] = code  # same body shape: bit 0 set, one string
    assert codec.decode_payload(bytes(frame)) == {
        "id": 2, "op": "execute_batch", "params": {"stmt": "x"},
    }


# ---------------------------------------------------------------- handlers


@pytest.mark.parametrize("core", [BeliefServer, AsyncBeliefServer])
def test_every_row_resolves_a_server_handler_and_vice_versa(core):
    served = {spec.name for spec in OPS.values() if spec.lock is not None}
    assert _methods(core, "_op_") == served


def test_every_row_resolves_a_router_handler_and_vice_versa():
    by_rule: dict[str, set[str]] = {}
    for spec in OPS.values():
        by_rule.setdefault(spec.route, set()).add(spec.name)
    assert set(by_rule) == {"local", "by_path", "fanout", "custom"}
    # custom rows are exactly the _route_* methods; by_path and fanout
    # rows are answered generically and define none.
    assert _methods(BeliefRouter, "_route_") == by_rule["custom"]
    # local rows run the server core's _op_<name> on the router's session;
    # the only _op_ the router adds is the router-only shard_status.
    assert by_rule["local"] <= _methods(BeliefRouter, "_op_")
    assert (
        _methods(BeliefRouter, "_op_") - _methods(BeliefServer, "_op_")
        == {"shard_status"}
    )


# ---------------------------------------------------- dispatch reads the row

SELECT = "select S.sid from Sightings as S"
INSERT = "insert into Sightings values (?,?,?,?,?)"
ROW = ["s1", "Carol", "crow", "d", "l"]

#: Minimal params per op. A handler that then fails (no open transaction,
#: unknown cursor) still entered its guard first, which is what is counted.
CALLS = {
    "login": {"user": "Carol", "create": True},
    "set_path": {"path": []},
    "add_user": {"name": "Bob"},
    "prepare": {"sql": SELECT},
    "execute_prepared": {"sql": SELECT},
    "execute_batch": {"sql": INSERT, "param_rows": [ROW]},
    "close_statement": {"stmt": 1},
    "fetch": {"cursor": 1},
    "close_cursor": {"cursor": 1},
    "believes": {"relation": "Sightings", "values": ROW},
    "lifecycle": {"action": "decay_sweep"},
}

EXPECTED_GUARDS = {
    "none": (0, 0), "pinned": (0, 0), "read": (1, 0), "write": (0, 1),
}


@pytest.fixture
def counting_server():
    """An unstarted server (dispatch needs no socket) whose lock counts
    guard acquisitions as ``[reads, writes]``."""
    server = BeliefServer(BeliefDBMS(sightings_schema(), strict=False))
    counts = [0, 0]
    read, write = server.lock.read, server.lock.write

    def counting_read():
        counts[0] += 1
        return read()

    def counting_write():
        counts[1] += 1
        return write()

    server.lock.read = counting_read  # type: ignore[method-assign]
    server.lock.write = counting_write  # type: ignore[method-assign]
    return server, counts


def _dispatch(server, session, op, params=None):
    if params is None:
        params = CALLS.get(op, {})
    return server._dispatch(session, Request(id=1, op=op, params=params))


@pytest.mark.parametrize(
    "op", sorted(n for n, s in OPS.items() if s.lock is not None)
)
def test_dispatch_takes_the_guard_the_row_names(counting_server, op):
    server, counts = counting_server
    _dispatch(server, ClientSession(), op)
    assert tuple(counts) == EXPECTED_GUARDS[OPS[op].lock]


def test_statement_kind_picks_the_guard_of_execute_prepared(counting_server):
    server, counts = counting_server
    session = ClientSession()
    dml = {"sql": INSERT, "params": ROW}
    assert _dispatch(server, session, "execute_prepared", dml).ok
    assert counts == [0, 1]  # DML is promoted to the write lock
    assert _dispatch(server, session, "begin").ok
    counts[:] = [0, 0]
    staged = _dispatch(server, session, "execute_prepared", dml)
    assert staged.ok and staged.result["status"] == "INSERT STAGED"
    staged = _dispatch(server, session, "execute_batch")
    assert staged.ok and staged.result["status"] == "INSERT STAGED"
    assert counts == [0, 0]  # staging touches only the session's buffer


def test_in_txn_column_is_the_refusal(counting_server):
    server, counts = counting_server
    session = ClientSession()
    assert _dispatch(server, session, "begin").ok
    counts[:] = [0, 0]
    refused = sorted(n for n, s in OPS.items() if not s.in_txn)
    assert refused == ["lifecycle"]
    for op in refused:
        response = _dispatch(server, session, op)
        assert not response.ok
        assert response.error["type"] == TransactionError.__name__
        assert "not transactional" in response.error["message"]
    assert counts == [0, 0]  # refused before any lock
    assert server.db.annotation_count() == 0


def test_shed_exempt_column_is_the_admission_rule():
    server = BeliefServer(
        BeliefDBMS(sightings_schema()), max_inflight_requests=0
    )
    session = ClientSession()
    for op, spec in sorted(OPS.items()):
        response = _dispatch(server, session, op)
        shed = (
            not response.ok
            and response.error["type"] == ServerOverloadedError.__name__
        )
        assert shed == (not spec.shed_exempt), op
    assert sorted(n for n, s in OPS.items() if s.shed_exempt) == [
        "metrics", "ping", "shard_status",
    ]


def test_names_session_state_reads_the_row():
    names = protocol.names_session_state
    assert names("commit", {}) and names("rollback", {})
    assert names("fetch", {"cursor": 3}) and names("close_cursor", {"cursor": 3})
    assert names("execute_prepared", {"stmt": 1, "params": []})
    assert names("execute_batch", {"stmt": 1, "param_rows": []})
    assert not names("execute_prepared", {"sql": SELECT, "params": []})
    assert not names("insert", {"relation": "R", "values": []})
    assert not names("begin", {}) and not names("no_such_op", {"stmt": 1})
