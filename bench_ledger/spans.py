"""Outside-in span recorder for the traced run.

Nothing under ``src/`` knows about spans: the recorder wraps the *public*
entry points of each layer from here — class methods by attribute, module
functions by rebinding every ``repro.*`` module global that ``is`` the
original — and keeps ``[name, start, end, parent, request_id]`` records in
memory, one list per thread. ``parent`` indexes the same thread's list
(-1 for a root span); spans of one request share ``request_id``.

A layer's self time is its span's duration minus the part of that interval
its child spans cover.
"""

from __future__ import annotations

import inspect
import itertools
import statistics
import sys
import threading
from time import perf_counter
from typing import Any, Callable, Iterable, Sequence

NAME, START, END, PARENT, RID = range(5)


class Recorder:
    """Records spans and owns the patches that produce them."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: dict[int, list[list]] = {}
        self._threads_lock = threading.Lock()
        self._request_ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording

    def _state(self) -> tuple[list[list], list[int]]:
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            with self._threads_lock:
                self._threads[threading.get_ident()] = local.spans
            return local.spans, local.stack

    def _begin(self, label: str) -> list:
        spans, stack = self._state()
        if stack:
            parent = stack[-1]
            rid = spans[parent][RID]
        else:
            parent, rid = -1, next(self._request_ids)
        record = [label, perf_counter(), 0.0, parent, rid]
        stack.append(len(spans))
        spans.append(record)
        return record

    def _end(self, record: list) -> None:
        record[END] = perf_counter()
        self._state()[1].pop()

    def wrap(self, func: Callable, name: "str | Callable[..., str]") -> Callable:
        """``func`` with a span around every call.

        ``name`` is the span name, or a callable given the call's arguments
        that returns it (e.g. to name an insert by its path depth).
        """
        begin, end = self._begin, self._end
        dynamic = callable(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            record = begin(name(*args, **kwargs) if dynamic else name)
            try:
                return func(*args, **kwargs)
            finally:
                end(record)

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        traced.__name__ = getattr(func, "__name__", "traced")
        return traced

    def span(self, name: str) -> "_ManualSpan":
        """``with recorder.span("client.insert"):`` around benchmark code."""
        return _ManualSpan(self, name)

    # ------------------------------------------------------------- patching

    def patch_method(
        self, cls: type, attr: str, name: "str | Callable[..., str]"
    ) -> None:
        """Wrap ``cls.attr`` (plain, static or class method) in a span."""
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            wrapped: Any = staticmethod(self.wrap(raw.__func__, name))
        elif isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(raw.__func__, name))
        else:
            wrapped = self.wrap(raw, name)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def patch_function(
        self, func: Callable, name: "str | Callable[..., str]"
    ) -> int:
        """Rebind every ``repro.*`` module global that ``is`` ``func``.

        ``from x import f`` copies the reference into the importer, so one
        function may be bound in several modules; all are rebound to the
        same wrapper. Returns the number of bindings replaced.
        """
        wrapped = self.wrap(func, name)
        count = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(module).items()):
                if value is func:
                    self._patches.append((module, key, func))
                    setattr(module, key, wrapped)
                    count += 1
        return count

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -------------------------------------------------------------- results

    def threads(self) -> dict[int, list[list]]:
        with self._threads_lock:
            return dict(self._threads)


class _ManualSpan:
    __slots__ = ("_recorder", "_name", "_record")

    def __init__(self, recorder: Recorder, name: str) -> None:
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> None:
        self._record = self._recorder._begin(self._name)

    def __exit__(self, *exc_info: object) -> None:
        self._recorder._end(self._record)


# ------------------------------------------------------------------ analysis


def _closed(spans: Sequence[Sequence]) -> list[Sequence]:
    """Spans still open when the recorder was read, given zero duration.

    Indices are kept, so ``parent`` stays valid.
    """
    return [
        s if s[END] > 0.0 else [s[NAME], s[START], s[START], s[PARENT], s[RID]]
        for s in spans
    ]


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Self time of every span of one thread, in recording order.

    Children are the spans whose ``parent`` is the span's index. Covered
    time is the union of the child intervals clipped to the parent, so
    overlapping or out-of-range children are never counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END])
            )
    out: list[float] = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(max(0.0, (end - start) - covered))
    return out


def summarize(threads: Iterable[Sequence[Sequence]]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total and self seconds, median self."""
    selfs: dict[str, list[float]] = {}
    totals: dict[str, float] = {}
    for spans in threads:
        spans = _closed(spans)
        for span, own in zip(spans, self_times(spans)):
            selfs.setdefault(span[NAME], []).append(own)
            totals[span[NAME]] = (
                totals.get(span[NAME], 0.0) + span[END] - span[START]
            )
    return {
        name: {
            "count": len(values),
            "total_s": totals[name],
            "self_s": sum(values),
            "self_p50_s": statistics.median(values),
        }
        for name, values in selfs.items()
    }


def request_breakdown(
    threads: Iterable[Sequence[Sequence]],
    first: str,
    last: str,
    kind_prefix: str,
) -> dict[str, dict[str, Any]]:
    """Server-side requests rebuilt from one connection thread's spans.

    A request runs from the start of a ``first`` span (the frame decode)
    to the end of the next ``last`` span (the response write) on the same
    thread; its kind is the name of the first span inside that starts with
    ``kind_prefix``. Returns, per kind, the request count, the median
    window and the median self time of each span name inside it, plus
    ``other``: window time no span covers (dispatch, session bookkeeping).
    """
    per_kind: dict[str, dict[str, list[float]]] = {}
    for spans in threads:
        spans = _closed(spans)
        own = self_times(spans)
        open_at: int | None = None
        for index, span in enumerate(spans):
            if span[NAME] == first:
                open_at = index
            elif span[NAME] == last and span[PARENT] == -1 and open_at is not None:
                window = span[END] - spans[open_at][START]
                parts: dict[str, float] = {}
                kind = "other"
                for j in range(open_at, len(spans)):
                    inner = spans[j]
                    if inner[START] > span[END]:
                        break
                    if inner[NAME].startswith("server.read"):
                        continue  # the blocking wait for the next frame
                    parts[inner[NAME]] = parts.get(inner[NAME], 0.0) + own[j]
                    if kind == "other" and inner[NAME].startswith(kind_prefix):
                        kind = inner[NAME]
                parts["other"] = max(0.0, window - sum(parts.values()))
                bucket = per_kind.setdefault(kind, {})
                bucket.setdefault("window", []).append(window)
                for name, value in parts.items():
                    bucket.setdefault(name, []).append(value)
                open_at = None
    out: dict[str, dict[str, Any]] = {}
    for kind, bucket in per_kind.items():
        n = len(bucket["window"])
        out[kind] = {
            "requests": n,
            "window_p50_s": statistics.median(bucket["window"]),
            "window_mean_s": statistics.fmean(bucket["window"]),
            # A span absent from some requests counts as zero there.
            "parts_mean_s": {
                name: sum(values) / n
                for name, values in bucket.items() if name != "window"
            },
        }
    return out


def breakdown_by_root(
    threads: Iterable[Sequence[Sequence]], root_name: str
) -> dict[str, Any]:
    """Mean self time per span name under the root spans named ``root_name``.

    Returns ``{"roots": n, "root_mean_s": ..., "root_p50_s": ...,
    "parts_mean_s": {name: seconds per root}}``; the parts sum to the mean
    root duration.
    """
    durations: list[float] = []
    parts: dict[str, float] = {}
    for spans in threads:
        spans = _closed(spans)
        own = self_times(spans)
        wanted = {
            s[RID] for s in spans if s[PARENT] == -1 and s[NAME] == root_name
        }
        for span, self_s in zip(spans, own):
            if span[RID] not in wanted:
                continue
            parts[span[NAME]] = parts.get(span[NAME], 0.0) + self_s
            if span[PARENT] == -1:
                durations.append(span[END] - span[START])
    n = len(durations)
    if n == 0:
        return {"roots": 0, "root_mean_s": 0.0, "root_p50_s": 0.0, "parts_mean_s": {}}
    return {
        "roots": n,
        "root_mean_s": statistics.fmean(durations),
        "root_p50_s": statistics.median(durations),
        "parts_mean_s": {name: total / n for name, total in parts.items()},
    }


# ------------------------------------------------------- the layer surface


def _insert_depth(store: Any, path: Any, *rest: Any, **kw: Any) -> str:
    return f"storage.insert_d{min(len(path), 2)}"


def _prepared_kind(db: Any, prepared: Any, *rest: Any, **kw: Any) -> str:
    return f"bdms.execute_prepared.{getattr(prepared, 'kind', 'other')}"


def _lifecycle_action(registry: Any, record: Any, *rest: Any, **kw: Any) -> str:
    return f"lifecycle.apply.{record.get('action', 'other')}"


def install_layer_spans(recorder: Recorder) -> None:
    """Wrap the public entry points of every layer under ``src/repro``.

    Imported lazily so this module stays importable (for its self-tests)
    without the system on the path.
    """
    import repro.beliefsql.compiler as compiler
    from repro.bdms.bdms import BeliefDBMS
    from repro.beliefsql.parser import parse_beliefsql
    from repro.durability.manager import DurabilityManager
    from repro.durability.wal import WalWriter
    from repro.lifecycle.registry import LifecycleRegistry
    from repro.query.sql_gen import evaluate_sql, generate_sql
    from repro.query.translate import evaluate_translated, translate_bcq
    from repro.relational.sqlite_backend import SqliteMirror
    from repro.server.binproto import BinaryCodec, JsonCodec
    from repro.server.server import ReadWriteLock
    from repro.storage.mvcc import Version, VersionManager
    from repro.storage.store import BeliefStore
    from repro.storage.updates import insert_tuple

    recorder.patch_function(parse_beliefsql, "beliefsql.parse")
    for attr, value in list(vars(compiler).items()):
        if attr.startswith("compile_") and inspect.isfunction(value):
            recorder.patch_function(value, "beliefsql.compile")
        elif (
            inspect.isclass(value) and attr.startswith("Compiled")
            and "bind" in value.__dict__
        ):
            recorder.patch_method(value, "bind", "beliefsql.bind")

    recorder.patch_method(BeliefDBMS, "execute_prepared", _prepared_kind)
    recorder.patch_method(BeliefDBMS, "execute_batch", "bdms.execute_batch")
    recorder.patch_method(BeliefDBMS, "commit_transaction", "bdms.commit")
    recorder.patch_method(BeliefDBMS, "insert", "bdms.insert")
    recorder.patch_method(BeliefDBMS, "query", "bdms.query")
    recorder.patch_method(BeliefDBMS, "audit_log", "lifecycle.audit_read")
    recorder.patch_method(BeliefDBMS, "provenance", "bdms.provenance")

    recorder.patch_function(translate_bcq, "query.translate")
    recorder.patch_function(evaluate_translated, "query.evaluate")
    recorder.patch_function(generate_sql, "query.sql_gen")
    recorder.patch_function(evaluate_sql, "query.sqlite_exec")

    recorder.patch_method(SqliteMirror, "sync", "relational.mirror_sync")
    recorder.patch_method(Version, "synced_mirror", "relational.synced_mirror")

    recorder.patch_function(insert_tuple, _insert_depth)
    recorder.patch_method(BeliefStore, "fork_snapshot", "storage.fork")
    recorder.patch_method(VersionManager, "pin", "storage.pin")
    recorder.patch_method(VersionManager, "release", "storage.release")

    recorder.patch_method(WalWriter, "append_batch", "durability.append")
    recorder.patch_method(DurabilityManager, "log", "durability.log")
    recorder.patch_method(DurabilityManager, "log_batch", "durability.log")
    recorder.patch_method(DurabilityManager, "log_transaction", "durability.log")
    recorder.patch_method(DurabilityManager, "checkpoint", "durability.checkpoint")

    recorder.patch_method(LifecycleRegistry, "apply", _lifecycle_action)
    recorder.patch_method(LifecycleRegistry, "provenance", "lifecycle.provenance")

    recorder.patch_method(ReadWriteLock, "acquire_write", "server.lock_wait_write")
    recorder.patch_method(ReadWriteLock, "acquire_read", "server.lock_wait_read")
    for codec, label in ((BinaryCodec, "binary"), (JsonCodec, "json")):
        recorder.patch_method(codec, "encode", f"server.encode_{label}")
        recorder.patch_method(codec, "read", "server.read")
        recorder.patch_method(codec, "write", "server.write")
    # BinaryCodec.read decodes through decode_frame; JsonCodec.read through
    # protocol.decode_frame, a module function bound in several modules.
    recorder.patch_method(BinaryCodec, "decode_frame", "server.decode_binary")
    import repro.server.protocol as protocol

    recorder.patch_function(protocol.decode_frame, "server.decode_json")
