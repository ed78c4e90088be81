"""CPU-speed calibration for the single-threaded, CPU-bound workloads.

The bench box's clock is not steady: the same pure-Python loop takes 8 to
12 ms here from one ten-second window to the next, and three embedded
workloads are nothing but such loops. Their raw times inherit that ±15%,
wider than any bound a regression is judged by. So those workloads run a
small fixed kernel between their operations and report their times *at the
reference speed*: measured time x (reference kernel time / kernel time in
this run). In a paired test the ratio's run-to-run spread was a third of
the raw time's. This is ROADMAP item 1's "ratio metrics taken in the same
run, which survive noisy runners", with the kernel as the common divisor.

Only times the CPU bounds are treated this way. The served workloads are
bounded by timers, fsync and the interpreter's switch interval, repeat
within 3% raw, and are reported as measured. ``obs.cpu_factor`` in the
traced run states the factor, so every raw value can be recovered.
"""

from __future__ import annotations

import statistics
from time import perf_counter

#: Median kernel time on the seed commit's bench box (2 vCPU, Python 3.11.7).
#: A constant of the ruler: changing it rescales every calibrated metric.
REFERENCE_S = 0.00240


def kernel() -> int:
    """~2.4 ms of interpreter work: arithmetic, dict stores, tuple churn."""
    table: dict[int, tuple[int, int]] = {}
    acc = 0
    for i in range(20000):
        acc += i * i % 7
        table[i & 1023] = (i, acc)
    return len(table)


class Calibrator:
    """Collects kernel timings; ``factor()`` scales a time to reference speed."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def tick(self) -> None:
        start = perf_counter()
        kernel()
        self.samples.append(perf_counter() - start)

    def factor(self) -> float:
        if not self.samples:
            return 1.0
        return REFERENCE_S / statistics.median(self.samples)
