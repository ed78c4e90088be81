"""The open-loop scheduler: requests fired on a fixed arrival schedule.

One asyncio thread drives any number of pipelined connections. Request ``i``
of a step is *due* at ``t0 + i / rate`` whether or not earlier requests have
completed, and its latency is timed from that due time, not from when the
generator got round to sending it — so the wait a stall imposes on later
requests is counted. How late the generator itself ran is reported beside
every step; a late generator means the client, not the server, was the
bottleneck, and the step's numbers are the generator's.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import perf_counter
from typing import Awaitable, Callable, Sequence

import stats

#: Sleeping for less than this overshoots by more than it saves.
MIN_SLEEP_S = 0.0005


@dataclass
class StepResult:
    rate: float
    offered: int
    completed: int = 0
    errors: int = 0
    elapsed_s: float = 0.0
    #: ``(kind, due_offset_s, latency_s)`` of every completed request.
    samples: list[tuple[str, float, float]] = field(default_factory=list)
    late_s: list[float] = field(default_factory=list)
    error_types: dict[str, int] = field(default_factory=dict)

    @property
    def achieved_rate(self) -> float:
        return self.completed / self.elapsed_s if self.elapsed_s else 0.0

    def latencies(self, kind: str | None = None) -> list[float]:
        return [lat for k, _, lat in self.samples if kind is None or k == kind]

    def halves_tail(self) -> tuple[float, float]:
        """Tail latency of the early and the late half, split by due time."""
        if not self.samples:
            return 0.0, 0.0
        mid = (self.offered / self.rate) / 2.0
        early = [lat for _, due, lat in self.samples if due <= mid]
        late = [lat for _, due, lat in self.samples if due > mid]
        return tail(early), tail(late)


def tail(latencies: Sequence[float]) -> float:
    """p99, or the highest percentile below it the sample still supports."""
    if not latencies:
        return 0.0
    q = min(0.99, stats.supported_tail(len(latencies)) or 0.5)
    return stats.percentile(latencies, q)


async def run_step(
    send: Callable[[int], Awaitable[str]],
    rate: float,
    duration_s: float,
    first_index: int = 0,
    clock: Callable[[], float] = perf_counter,
) -> StepResult:
    """Offer ``rate`` requests/s for ``duration_s``; wait for all replies.

    ``send(i)`` performs request ``i`` and returns its kind (for grouping
    latencies); an exception counts as an error and gives no sample.
    """
    offered = max(1, int(rate * duration_s))
    step = StepResult(rate=rate, offered=offered)
    t0 = clock() + 0.02

    async def one(index: int, due: float) -> None:
        try:
            kind = await send(index)
        except Exception as exc:  # noqa: BLE001 — tallied; the schedule goes on
            step.errors += 1
            name = type(exc).__name__
            step.error_types[name] = step.error_types.get(name, 0) + 1
            return
        step.samples.append((kind, due - t0, clock() - due))

    tasks = []
    for i in range(offered):
        due = t0 + i / rate
        delay = due - clock()
        if delay > MIN_SLEEP_S:
            await asyncio.sleep(delay)
        elif i % 16 == 0:
            await asyncio.sleep(0)  # let replies in even when behind schedule
        step.late_s.append(max(0.0, clock() - due))
        tasks.append(asyncio.ensure_future(one(first_index + i, due)))
    await asyncio.gather(*tasks)
    step.elapsed_s = clock() - t0
    step.completed = len(step.samples)
    return step


def rate_ok(step: StepResult, limit_s: float, sheds: float = 0.0) -> bool:
    """The latency limit holds at this rate and no backlog is growing.

    No backlog: the late half's tail is under twice the early half's (or
    so far under the limit that the ratio is noise).
    """
    if step.errors or sheds or step.completed < step.offered:
        return False
    latencies = step.latencies()
    if not latencies or tail(latencies) > limit_s:
        return False
    early, late = step.halves_tail()
    return late < 2.0 * early or late < limit_s / 5.0


def max_rate_ok(steps: Sequence[StepResult], limit_s: float) -> float:
    """Highest offered rate that meets the limit (0 when none does)."""
    return max((s.rate for s in steps if rate_ok(s, limit_s)), default=0.0)
