"""Counters, gauges, histograms, and the registry that exposes them.

A :class:`MetricsRegistry` is a thread-safe, process-wide-capable namespace
of metric *families*. A family has a Prometheus-compatible name, a help
string, a fixed tuple of label names, and one *child* per distinct label
value combination; the child holds the actual numbers. Families with no
labels delegate straight to a single default child, so ``counter.inc()``
works without a ``labels()`` hop.

Get-or-create semantics: asking the registry for a family that already
exists returns the existing one — provided type, label names, and (for
histograms) buckets match — so independently-instrumented components
(server core, BDMS, durability manager) can share one registry without
coordinating registration order.

Histograms use **fixed log-scale buckets** (defaults below): observation
cost is one bisect plus two adds under the family lock, and the bucket
layout never adapts, so two histograms of the same family are always
mergeable and exposition is stable. Quantiles are estimated the way
Prometheus' ``histogram_quantile`` does — linear interpolation inside the
winning bucket — and the exact-sample :func:`percentile` helper lives here
too so the open-loop harness and the histograms share one set of
pinned-down conventions.

Everything is standard library; rendering follows the Prometheus text
exposition format version 0.0.4.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from threading import get_ident
from typing import Any, Callable, Sequence

#: Wire-op / statement latency buckets, in seconds: a fixed log scale of
#: 1-2.5-5 steps per decade from 100µs to 10s (plus the implicit +Inf).
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Size/count buckets (WAL batch sizes and the like): powers of two.
COUNT_BUCKETS: tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def percentile(samples: Sequence[float], q: float) -> float:
    """Exact percentile of raw samples, linear interpolation between ranks.

    ``q`` is a fraction in [0, 1]. The convention (pinned by tests) is the
    classic ``idx = q * (n - 1)`` linear rule: ``percentile([1,2,3,4], .5)``
    is 2.5. Returns 0.0 for an empty sequence.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return float(ordered[0])
    q = min(1.0, max(0.0, q))
    idx = q * (len(ordered) - 1)
    lo = int(idx)
    hi = min(lo + 1, len(ordered) - 1)
    frac = idx - lo
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * frac)


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    as_int = int(value)
    if value == as_int:
        return str(as_int)
    return repr(float(value))


def _render_labels(
    label_names: tuple[str, ...], label_values: tuple[str, ...],
    extra: tuple[tuple[str, str], ...] = (),
) -> str:
    pairs = [
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(label_names, label_values)
    ]
    pairs += [f'{name}="{_escape_label(value)}"' for name, value in extra]
    if not pairs:
        return ""
    return "{" + ",".join(pairs) + "}"


class _Metric:
    """Common family machinery: name/help/labels, children, locking."""

    type: str = "untyped"

    def __init__(
        self, name: str, help: str, labels: Sequence[str] = ()
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.label_names = tuple(labels)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], Any] = {}
        if not self.label_names:
            self._default = self._materialize(())

    def _materialize(self, key: tuple[str, ...]) -> Any:
        child = self._new_child()
        self._children[key] = child
        return child

    def _new_child(self) -> Any:  # pragma: no cover — overridden
        raise NotImplementedError

    def labels(self, **kv: Any) -> Any:
        """The child for one label-value combination (created on demand)."""
        if set(kv) != set(self.label_names):
            raise ValueError(
                f"{self.name} takes labels {self.label_names}, got "
                f"{tuple(sorted(kv))}"
            )
        key = tuple(str(kv[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._materialize(key)
            return child

    def _require_unlabelled(self) -> Any:
        if self.label_names:
            raise ValueError(
                f"{self.name} has labels {self.label_names}; use .labels()"
            )
        return self._default

    def children(self) -> list[tuple[tuple[str, ...], Any]]:
        with self._lock:
            return sorted(self._children.items())


class _CounterChild:
    """Lock-free on the write path via per-thread shards.

    Each thread mutates only its own shard (a one-element list keyed by
    thread ident), which is safe under the GIL — no other thread ever
    read-modify-writes it, so no increment can be lost. Readers aggregate
    across a C-level copy of the shard table. Thread idents are recycled
    by the OS, so the shard count is bounded by *peak* thread concurrency,
    not by how many threads ever lived.

    A child may instead report a count some other component keeps
    (:meth:`set_function`), read at collection time.
    """

    __slots__ = ("_shards", "_fn")

    def __init__(self) -> None:
        self._shards: dict[int, list[float]] = {}
        self._fn: Callable[[], float] | None = None

    def set_function(self, fn: Callable[[], float] | None) -> None:
        self._fn = fn

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        ident = get_ident()
        shard = self._shards.get(ident)
        if shard is None:
            shard = self._shards[ident] = [0.0]
        shard[0] += amount

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        # list() snapshots the dict at C level — safe against concurrent
        # first-time shard inserts.
        return sum(shard[0] for shard in list(self._shards.values()))


class Counter(_Metric):
    """A monotonically increasing count (ops served, cache hits, sheds)."""

    type = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._require_unlabelled().inc(amount)

    def set_function(self, fn: Callable[[], float] | None) -> None:
        self._require_unlabelled().set_function(fn)

    @property
    def value(self) -> float:
        return self._require_unlabelled().value


class _GaugeChild:
    __slots__ = ("_lock", "_value", "_fn")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0
        self._fn: Callable[[], float] | None = None

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    def set_function(self, fn: Callable[[], float] | None) -> None:
        """Compute the value at collection time (uptime, queue depths)."""
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        with self._lock:
            if self._fn is not None:
                return float(self._fn())
            return self._value


class Gauge(_Metric):
    """A value that goes up and down (in-flight requests, active sessions)."""

    type = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild(self._lock)

    def set(self, value: float) -> None:
        self._require_unlabelled().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._require_unlabelled().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._require_unlabelled().dec(amount)

    def set_function(self, fn: Callable[[], float] | None) -> None:
        self._require_unlabelled().set_function(fn)

    @property
    def value(self) -> float:
        return self._require_unlabelled().value


class _HistogramChild:
    """Per-thread sharded like :class:`_CounterChild` — the observe path
    is the hottest line in the server (op latency, lock wait/hold, WAL
    fsync all land here), so it must not funnel every worker thread
    through a shared lock. A shard is ``[bucket_counts, sum]``; ``count``
    is derived from the bucket counts so a concurrent scrape always sees
    ``cumulative()[-1] == count`` (the ``sum`` may trail by the
    observation in flight, which monitoring tolerates)."""

    __slots__ = ("bounds", "_shards")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self._shards: dict[int, list[Any]] = {}

    def observe(self, value: float) -> None:
        ident = get_ident()
        shard = self._shards.get(ident)
        if shard is None:
            shard = self._shards[ident] = [
                [0] * (len(self.bounds) + 1),  # last = +Inf overflow
                0.0,
            ]
        shard[0][bisect_left(self.bounds, value)] += 1
        shard[1] += value

    def _bucket_totals(self) -> list[int]:
        totals = [0] * (len(self.bounds) + 1)
        for shard in list(self._shards.values()):
            for index, n in enumerate(shard[0]):
                totals[index] += n
        return totals

    @property
    def count(self) -> int:
        return sum(self._bucket_totals())

    @property
    def sum(self) -> float:
        return sum(shard[1] for shard in list(self._shards.values()))

    def cumulative(self) -> list[int]:
        """Cumulative counts per bucket, ending with the +Inf total."""
        out, running = [], 0
        for n in self._bucket_totals():
            running += n
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """Estimate a quantile from the buckets (Prometheus convention).

        Linear interpolation between the winning bucket's lower and upper
        bound at rank ``q * count``; observations that landed in the +Inf
        overflow bucket report the largest finite bound (the estimate
        cannot exceed what the layout can resolve). 0.0 when empty.
        """
        cumulative = self.cumulative()
        total = cumulative[-1]
        if total == 0:
            return 0.0
        q = min(1.0, max(0.0, q))
        rank = q * total
        previous = 0
        for index, running in enumerate(cumulative):
            if running >= rank:
                if index >= len(self.bounds):
                    return float(self.bounds[-1]) if self.bounds else 0.0
                lo = self.bounds[index - 1] if index else 0.0
                hi = self.bounds[index]
                in_bucket = running - previous
                if in_bucket <= 0:
                    return float(hi)
                frac = (rank - previous) / in_bucket
                return float(lo + (hi - lo) * frac)
            previous = running
        return float(self.bounds[-1]) if self.bounds else 0.0


class Histogram(_Metric):
    """Latency/size distribution over fixed log-scale buckets."""

    type = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        if bounds[-1] == float("inf"):
            bounds = bounds[:-1]  # +Inf is implicit
        self.bounds = bounds
        super().__init__(name, help, labels)

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.bounds)

    def observe(self, value: float) -> None:
        self._require_unlabelled().observe(value)

    @property
    def count(self) -> int:
        return self._require_unlabelled().count

    @property
    def sum(self) -> float:
        return self._require_unlabelled().sum

    def quantile(self, q: float) -> float:
        return self._require_unlabelled().quantile(q)


class MetricsRegistry:
    """A thread-safe namespace of metric families.

    One registry serves one *system*: the BDMS creates its own at
    construction and the network server adopts and extends it, so in a
    server process there is effectively one process-wide registry — while
    tests (and multi-database embedders) get isolation for free.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Metric] = {}

    def counter(
        self, name: str, help: str, labels: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str, labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        existing = self._peek(name)
        if existing is not None:
            self._check_match(existing, Histogram, name, labels)
            assert isinstance(existing, Histogram)
            if existing.bounds != tuple(float(b) for b in buckets):
                raise ValueError(
                    f"metric {name!r} is registered with buckets "
                    f"{existing.bounds}, not {tuple(buckets)}"
                )
            return existing
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = Histogram(name, help, labels, buckets)
                self._families[name] = family
        self._check_match(family, Histogram, name, labels)
        assert isinstance(family, Histogram)
        return family

    def _peek(self, name: str) -> _Metric | None:
        with self._lock:
            return self._families.get(name)

    def _get_or_create(
        self, cls: type, name: str, help: str, labels: Sequence[str]
    ) -> Any:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = cls(name, help, labels)
                self._families[name] = family
        self._check_match(family, cls, name, labels)
        return family

    @staticmethod
    def _check_match(
        family: _Metric, cls: type, name: str, labels: Sequence[str]
    ) -> None:
        if type(family) is not cls:
            raise ValueError(
                f"metric {name!r} is already registered as a "
                f"{family.type}, not a {cls.type}"  # type: ignore[attr-defined]
            )
        if family.label_names != tuple(labels):
            raise ValueError(
                f"metric {name!r} is registered with labels "
                f"{family.label_names}, not {tuple(labels)}"
            )

    def get(self, name: str) -> _Metric | None:
        """The registered family by name, or None."""
        return self._peek(name)

    def families(self) -> list[_Metric]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    # ------------------------------------------------------------- rendering

    def snapshot(self) -> list[dict[str, Any]]:
        """JSON-plain form of every family (the ``metrics`` wire op body)."""
        out: list[dict[str, Any]] = []
        for family in self.families():
            samples: list[dict[str, Any]] = []
            for key, child in family.children():
                labels = dict(zip(family.label_names, key))
                if isinstance(family, Histogram):
                    cumulative = child.cumulative()
                    buckets = [
                        [_format_value(bound), cumulative[i]]
                        for i, bound in enumerate(family.bounds)
                    ] + [["+Inf", cumulative[-1]]]
                    samples.append({
                        "labels": labels,
                        "count": child.count,
                        "sum": child.sum,
                        "buckets": buckets,
                    })
                else:
                    samples.append({"labels": labels, "value": child.value})
            out.append({
                "name": family.name,
                "type": family.type,
                "help": family.help,
                "label_names": list(family.label_names),
                "samples": samples,
            })
        return out

    def render_text(self) -> str:
        """Prometheus text exposition format 0.0.4 (ends with a newline)."""
        lines: list[str] = []
        for family in self.families():
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.type}")
            for key, child in family.children():
                if isinstance(family, Histogram):
                    self._render_histogram(lines, family, key, child)
                else:
                    labels = _render_labels(family.label_names, key)
                    lines.append(
                        f"{family.name}{labels} {_format_value(child.value)}"
                    )
        return "\n".join(lines) + "\n" if lines else ""

    @staticmethod
    def _render_histogram(
        lines: list[str],
        family: Histogram,
        key: tuple[str, ...],
        child: _HistogramChild,
    ) -> None:
        cumulative = child.cumulative()
        for i, bound in enumerate(family.bounds):
            labels = _render_labels(
                family.label_names, key, extra=(("le", _format_value(bound)),)
            )
            lines.append(f"{family.name}_bucket{labels} {cumulative[i]}")
        labels = _render_labels(family.label_names, key, extra=(("le", "+Inf"),))
        lines.append(f"{family.name}_bucket{labels} {cumulative[-1]}")
        plain = _render_labels(family.label_names, key)
        lines.append(f"{family.name}_sum{plain} {_format_value(child.sum)}")
        lines.append(f"{family.name}_count{plain} {child.count}")

