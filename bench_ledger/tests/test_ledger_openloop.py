import asyncio

import openloop


class FakeClock:
    """Virtual time: ``asyncio.sleep`` is patched to advance it, requests
    advance it by their service time, and nothing else moves it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def run_step(monkeypatch, send_factory, rate, duration):
    clock = FakeClock()
    real_sleep = asyncio.sleep

    async def fake_sleep(delay):
        wake_at = clock.now + max(0.0, delay)
        await real_sleep(0)  # requests already sent run now, on the fake clock
        clock.now = max(clock.now, wake_at)

    monkeypatch.setattr(openloop.asyncio, "sleep", fake_sleep)

    async def go():
        return await openloop.run_step(send_factory(clock), rate, duration, clock=clock)

    return asyncio.run(go())


def test_latency_is_measured_from_the_scheduled_time(monkeypatch):
    """A client that stalls once delays every later request; an open loop
    timed from the due time sees that, one timed from the send would not."""
    service = 0.001

    def factory(clock):
        async def send(index):
            # The fake server is busy for 50 ms on request 5, 1 ms otherwise,
            # and serves one request at a time (the clock only moves forward).
            clock.now += 0.050 if index == 5 else service
            return "op"

        return send

    step = run_step(monkeypatch, factory, rate=100.0, duration=0.2)  # due every 10 ms
    latencies = [lat for _, _, lat in step.samples]
    assert step.completed == step.offered == 20
    assert max(latencies[:5]) < 0.002               # before the stall: service time
    assert latencies[5] >= 0.050                    # the stalled request itself
    # Requests 6..9 were due during the stall: they are charged the wait
    # even though each took 1 ms from the moment it was finally sent.
    assert all(lat > 0.010 for lat in latencies[6:9])
    assert latencies[6] > latencies[7] > latencies[8]  # the backlog drains
    assert max(step.late_s) >= 0.030                # and the generator says it ran late


def test_an_on_time_generator_reports_no_lateness(monkeypatch):
    def factory(clock):
        async def send(index):
            return "op"

        return send

    step = run_step(monkeypatch, factory, rate=1000.0, duration=0.05)
    assert step.completed == 50 and step.errors == 0
    assert max(step.late_s) < 0.001


def test_errors_give_no_latency_sample_and_fail_the_rate(monkeypatch):
    def factory(clock):
        async def send(index):
            if index % 10 == 0:
                raise RuntimeError("refused")
            return "op"

        return send

    step = run_step(monkeypatch, factory, rate=1000.0, duration=0.1)
    assert step.errors == 10 and step.completed == 90
    assert step.error_types == {"RuntimeError": 10}
    assert not openloop.rate_ok(step, limit_s=1.0)


def make_step(rate, early, late):
    n = len(early) + len(late)
    step = openloop.StepResult(rate=rate, offered=n, completed=n)
    span = n / rate
    step.samples = [("op", span * 0.25, lat) for lat in early]
    step.samples += [("op", span * 0.75, lat) for lat in late]
    return step


def test_max_rate_ok_wants_the_limit_and_no_growing_backlog():
    steady = make_step(100.0, [0.010] * 100, [0.011] * 100)
    growing = make_step(200.0, [0.005] * 100, [0.020] * 100)   # under the limit, but 4x
    slow = make_step(400.0, [0.030] * 100, [0.030] * 100)      # over the limit
    assert openloop.rate_ok(steady, 0.025)
    assert not openloop.rate_ok(growing, 0.025)
    assert not openloop.rate_ok(slow, 0.025)
    assert openloop.max_rate_ok([steady, growing, slow], 0.025) == 100.0
    assert openloop.max_rate_ok([slow], 0.025) == 0.0
