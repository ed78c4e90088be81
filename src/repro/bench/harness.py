"""Benchmark support: timing and table rendering."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence


@dataclass
class Timing:
    """Mean/stdev of repeated wall-clock timings, in milliseconds."""

    mean_ms: float
    stdev_ms: float
    repeats: int
    last_result: Any = None

    def __str__(self) -> str:
        return f"{self.mean_ms:8.2f} ± {self.stdev_ms:6.2f} ms (n={self.repeats})"


def time_call(fn: Callable[[], Any], repeats: int = 5) -> Timing:
    """Time ``fn()`` ``repeats`` times; returns millisecond statistics."""
    samples: list[float] = []
    result: Any = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        samples.append((time.perf_counter() - start) * 1000.0)
    stdev = statistics.stdev(samples) if len(samples) > 1 else 0.0
    return Timing(statistics.mean(samples), stdev, len(samples), result)


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[Any]], title: str | None = None
) -> str:
    """Render an aligned text table (the benchmark output format)."""
    str_rows = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value: Any) -> str:
    if isinstance(value, float):
        # Keep resolution for sub-10 values (query times in ms can be tiny).
        return f"{value:,.1f}" if abs(value) >= 10 else f"{value:.3f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)
