"""Unit tests for the open-loop load generator — fake clients, no sockets.

The harness is duck-typed: anything with ``call(op, **params)`` works, so
these tests pin its accounting (ok/shed/error), its coordinated-omission
convention, and its collapse detector without a real server.

They run on a virtual clock, not the wall clock: every sender thread has a
timeline of its own that only its sleeps — the harness waiting for a
scheduled send, a fake client's "service time" — move forward. So latencies
are exactly the queueing the schedule implies, however loaded the machine.
"""

from __future__ import annotations

import threading
import types

import pytest

import repro.bench.openloop as openloop
from repro.bench.openloop import COLLAPSE_FLOOR_MS, run_open_loop
from repro.errors import ServerOverloadedError


class VirtualClock:
    """Per-thread virtual time, in seconds; sleeping advances the sleeper's."""

    def __init__(self) -> None:
        self._local = threading.local()

    def now(self) -> float:
        return getattr(self._local, "t", 0.0)

    def sleep(self, seconds: float) -> None:
        self._local.t = self.now() + max(0.0, seconds)


@pytest.fixture(autouse=True)
def clock(monkeypatch) -> VirtualClock:
    clock = VirtualClock()
    monkeypatch.setattr(openloop, "monotonic_s", clock.now)
    monkeypatch.setattr(openloop, "time", types.SimpleNamespace(sleep=clock.sleep))
    return clock


class FakeClient:
    """A scripted client: per-index behavior, records closes."""

    def __init__(self, behave=None, registry=None):
        self._behave = behave or (lambda op, params: None)
        self._registry = registry
        self.closed = False

    def call(self, op, **params):
        return self._behave(op, params)

    def close(self):
        self.closed = True
        if self._registry is not None:
            self._registry.append(self)


def _op(i: int):
    return ("ping", {"i": i})


def test_rejects_nonpositive_rate_and_ops():
    with pytest.raises(ValueError):
        run_open_loop(FakeClient, _op, rate=0, total_ops=10)
    with pytest.raises(ValueError):
        run_open_loop(FakeClient, _op, rate=-5, total_ops=10)
    with pytest.raises(ValueError):
        run_open_loop(FakeClient, _op, rate=100, total_ops=0)


def test_all_ok_accounting():
    report = run_open_loop(
        FakeClient, _op, rate=2000, total_ops=20, workers=4
    )
    assert report.offered == 20
    assert report.completed == 20
    assert report.shed == 0
    assert report.errors == 0
    assert report.error_types == {}
    assert report.achieved_rate > 0
    assert report.target_rate == 2000
    assert 0 <= report.p50_ms <= report.p95_ms <= report.p99_ms
    assert report.p99_ms <= report.max_ms
    assert not report.collapsed


def test_shed_and_error_tally():
    def behave(op, params):
        i = params["i"]
        if i % 5 == 0:
            raise ServerOverloadedError("shed")
        if i % 5 == 1:
            raise RuntimeError("boom")

    report = run_open_loop(
        lambda: FakeClient(behave), _op, rate=2000, total_ops=20, workers=2
    )
    assert report.shed == 4
    assert report.errors == 4
    assert report.completed == 12
    assert report.error_types == {"RuntimeError": 4}
    # Shed/error requests contribute no latency sample.
    assert report.completed == 12


def test_every_request_delivered_exactly_once():
    seen: list[int] = []
    lock = threading.Lock()

    def behave(op, params):
        with lock:
            seen.append(params["i"])

    run_open_loop(
        lambda: FakeClient(behave), _op, rate=5000, total_ops=50, workers=7
    )
    assert sorted(seen) == list(range(50))


def test_clients_closed_one_per_worker():
    closed: list[FakeClient] = []
    run_open_loop(
        lambda: FakeClient(registry=closed), _op,
        rate=5000, total_ops=12, workers=3,
    )
    assert len(closed) == 3
    assert all(c.closed for c in closed)


def test_workers_clamped_to_total_ops():
    closed: list[FakeClient] = []
    report = run_open_loop(
        lambda: FakeClient(registry=closed), _op,
        rate=5000, total_ops=3, workers=16,
    )
    assert report.completed == 3
    assert len(closed) == 3  # clamped: one worker per op, not 16


def test_client_without_close_is_fine():
    class Bare:
        def call(self, op, **params):
            return None

    report = run_open_loop(Bare, _op, rate=5000, total_ops=5, workers=2)
    assert report.completed == 5


def test_coordinated_omission_measures_from_schedule(clock):
    """One slow response stalls the (single) sender; the requests queued
    behind it must report the *queueing* delay, not just their own fast
    service time — that is the whole point of the open-loop convention."""
    stall_ms = 80.0

    def behave(op, params):
        if params["i"] == 0:
            clock.sleep(stall_ms / 1000.0)

    report = run_open_loop(
        lambda: FakeClient(behave), _op,
        rate=1000, total_ops=5, workers=1,
    )
    assert report.completed == 5
    # Request 4 was scheduled at 4ms but could not even be *sent* before
    # 80ms; measured from schedule its latency is 76ms, far above its
    # (zero) service time.
    assert report.max_ms == pytest.approx(stall_ms)
    assert report.p99_ms >= stall_ms - 4.0 - 1e-6


def test_collapse_detected_when_late_half_queues(clock):
    """Early half instant, late half served slower than the arrival rate:
    the queue grows without bound and the detector must fire."""
    midpoint = 20

    def behave(op, params):
        if params["i"] >= midpoint:
            clock.sleep(0.03)  # 30ms service vs 10ms arrival spacing

    report = run_open_loop(
        lambda: FakeClient(behave), _op,
        rate=100, total_ops=40, workers=1, collapse_factor=5.0,
    )
    assert report.early_p99_ms == 0.0
    assert report.late_p99_ms > COLLAPSE_FLOOR_MS
    assert report.collapsed


def test_stable_run_not_collapsed():
    """Instant service at any rate and any number of senders: no request
    waits, so nothing queues — whatever else the machine is doing."""
    report = run_open_loop(
        FakeClient, _op, rate=500, total_ops=30, workers=4
    )
    assert report.completed == 30
    assert report.max_ms == 0.0
    assert not report.collapsed


def test_as_dict_shape():
    report = run_open_loop(FakeClient, _op, rate=2000, total_ops=10)
    payload = report.as_dict()
    assert payload["offered"] == 10
    assert payload["completed"] == 10
    assert set(payload) == {
        "target_rate", "offered", "completed", "shed", "errors",
        "elapsed_s", "achieved_rate", "mean_ms", "p50_ms", "p95_ms",
        "p99_ms", "max_ms", "early_p99_ms", "late_p99_ms",
        "collapsed", "error_types",
    }
    import json

    json.dumps(payload)  # wire/JSON safe
