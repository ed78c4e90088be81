"""The durability manager: data-dir layout, logging, checkpoints, recovery.

One :class:`DurabilityManager` owns one *data directory*::

    <data_dir>/
        LOCK                        advisory flock; held while attached
        wal/wal-<first_seq>.seg     write-ahead log segments
        snapshots/snapshot-<seq>.json

Lifecycle: construct the manager, pass it to
:class:`~repro.bdms.bdms.BeliefDBMS` (``durability=``), and the BDMS calls
:meth:`recover` to rebuild state (newest snapshot + WAL tail replay), then
routes every accepted write through :meth:`log` *before the operation
returns* — with the default ``sync="always"`` policy an acknowledged write
has been fsync'd, so SIGKILL at any instant loses nothing acknowledged.

:meth:`checkpoint` snapshots current state at the last logged sequence
number, then prunes WAL segments and old snapshots the new snapshot makes
redundant. Checkpoints bound recovery time; the ``checkpoint_every`` knob
(ops between automatic checkpoints) and the server's background checkpoint
thread both land here.

Single-writer discipline is enforced with an advisory ``flock`` on
``<data_dir>/LOCK``: a second process (or a second manager in this process)
opening the same directory fails fast instead of interleaving segments. The
kernel releases the lock when the process dies, so a SIGKILL'd server never
bricks its data directory.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any

from repro.errors import DurabilityError, WalCorruptionError
from repro.obs.clock import Stopwatch

from repro.durability import snapshot as snap
from repro.durability import wal
from repro.durability.recovery import RecoveryReport, replay_records

try:  # pragma: no cover — fcntl is present on every POSIX target we support
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]


class DurabilityManager:
    """Persistence engine for one data directory (see module docstring).

    Parameters
    ----------
    data_dir:
        Directory to create/open. Created (with parents) when missing.
    sync:
        WAL fsync policy — ``"always"`` (default; ack implies durable),
        ``"batch"``, or ``"off"``. See :class:`~repro.durability.wal.WalWriter`.
    segment_bytes:
        WAL segment rotation threshold.
    checkpoint_every:
        Automatic checkpoint after this many logged records (0 disables;
        time-based checkpoints are the server's job).
    keep_snapshots:
        Snapshots retained after a checkpoint (the newest always survives).
    """

    def __init__(
        self,
        data_dir: str,
        sync: str = "always",
        segment_bytes: int = wal.DEFAULT_SEGMENT_BYTES,
        checkpoint_every: int = 0,
        keep_snapshots: int = 2,
        batch_every: int = 64,
    ) -> None:
        self.data_dir = os.path.abspath(data_dir)
        self.wal_dir = os.path.join(self.data_dir, "wal")
        self.snapshot_dir = os.path.join(self.data_dir, "snapshots")
        os.makedirs(self.wal_dir, exist_ok=True)
        os.makedirs(self.snapshot_dir, exist_ok=True)
        self.sync = sync
        self.checkpoint_every = max(0, checkpoint_every)
        self.keep_snapshots = max(1, keep_snapshots)
        self._lock = threading.RLock()
        self._lock_file = self._acquire_dir_lock()
        self._writer = wal.WalWriter(
            self.wal_dir, segment_bytes=segment_bytes, sync=sync,
            batch_every=batch_every,
        )
        self._closed = False
        self._failed: str | None = None
        # Set by bind_metrics(); None keeps the hot path observation-free.
        self._append_timer: Any = None
        self._batch_sizes: Any = None
        self.last_seq = 0
        self.last_checkpoint_seq = 0
        self.records_since_checkpoint = 0
        self.checkpoints = 0
        self.transactions_logged = 0
        self.last_recovery: RecoveryReport | None = None

    # ------------------------------------------------------------ dir locking

    def _acquire_dir_lock(self) -> Any:
        path = os.path.join(self.data_dir, "LOCK")
        handle = open(path, "a+")
        if fcntl is not None:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                handle.close()
                raise DurabilityError(
                    f"data directory {self.data_dir} is locked by another "
                    "process (or another DurabilityManager)"
                ) from None
        return handle

    # ---------------------------------------------------------------- metrics

    def bind_metrics(self, registry: Any) -> None:
        """Register WAL instruments on ``registry`` and start observing.

        Called by :meth:`BeliefDBMS.attach_durability` so durability metrics
        land in the same registry as statement and server metrics.
        Idempotent: re-binding (even to a different registry) simply swaps
        the observation targets. Never binding keeps every hot path at a
        single ``is None`` check.
        """
        from repro.obs.metrics import COUNT_BUCKETS

        self._append_timer = registry.histogram(
            "beliefdb_wal_append_seconds",
            "Whole WAL batch append latency (encode + write + fsync).",
        )
        self._batch_sizes = registry.histogram(
            "beliefdb_wal_batch_records",
            "Records per WAL append batch.",
            buckets=COUNT_BUCKETS,
        )
        fsync_hist = registry.histogram(
            "beliefdb_wal_fsync_seconds",
            "Time spent inside os.fsync on WAL segment files.",
        )
        self._writer.fsync_observer = fsync_hist.observe

    # --------------------------------------------------------------- recovery

    def recover(self, db: Any) -> RecoveryReport:
        """Rebuild ``db`` (which must be empty) from snapshot + WAL tail.

        Tolerates a torn tail in the *final* segment (truncated to the last
        valid record — a torn record was never acknowledged); refuses on any
        other damage (:class:`WalCorruptionError`), because that would mean
        silently dropping acknowledged history.
        """
        self._ensure_open()
        if db.users() or db.annotation_count():
            raise DurabilityError(
                "recovery requires an empty database (attach durability at "
                "construction time, or use BeliefDBMS.restore())"
            )
        started = time.perf_counter()
        report = RecoveryReport()
        db._in_recovery = True
        try:
            payload, report.snapshots_skipped = snap.load_latest_snapshot(
                self.snapshot_dir
            )
            base_seq = 0
            if payload is not None:
                report.snapshot_statements = snap.restore_snapshot(db, payload)
                base_seq = int(payload["seq"])
                report.snapshot_seq = base_seq
            tail, origins = self._scan_wal_tail(base_seq, report)
            tail, replayable = self._resolve_transactions(
                tail, origins, report
            )
            report.wal_records = len(tail)
            report.replay = replay_records(db, replayable)
            self.last_seq = tail[-1]["seq"] if tail else base_seq
            self.last_checkpoint_seq = base_seq
            self.records_since_checkpoint = len(tail)
        finally:
            db._in_recovery = False
        report.elapsed_ms = (time.perf_counter() - started) * 1000.0
        self.last_recovery = report
        return report

    def _scan_wal_tail(
        self, base_seq: int, report: RecoveryReport
    ) -> tuple[list[dict[str, Any]], list[tuple[str, int]]]:
        """Records with seq > base_seq (plus each record's file origin);
        truncates a torn final segment."""
        segments = wal.list_segments(self.wal_dir)
        tail: list[dict[str, Any]] = []
        origins: list[tuple[str, int]] = []
        expected = None
        for index, (first_seq, path) in enumerate(segments):
            scan = wal.scan_segment(path)
            if scan.clean and not scan.records:
                # A crash between segment rotation and the first record
                # write leaves an empty segment named after a seq that was
                # never logged; drop it or it would collide with the next
                # append's segment.
                os.remove(path)
                continue
            if not scan.clean:
                if index != len(segments) - 1:
                    raise WalCorruptionError(
                        f"segment {path} is damaged ({scan.error}) but is "
                        "not the final segment — acknowledged history would "
                        "be lost"
                    )
                report.torn_tail_bytes = (
                    os.path.getsize(path) - scan.valid_bytes
                )
                self._truncate_segment(path, scan.valid_bytes)
            for record, offset in zip(scan.records, scan.offsets):
                seq = record.get("seq")
                if not isinstance(seq, int):
                    raise WalCorruptionError(
                        f"record without integer seq in {path}: {record!r}"
                    )
                if expected is not None and seq != expected:
                    raise WalCorruptionError(
                        f"sequence gap in WAL: expected {expected}, "
                        f"found {seq} in {path}"
                    )
                expected = seq + 1
                if seq > base_seq:
                    tail.append(record)
                    origins.append((path, offset))
        if tail and tail[0]["seq"] != base_seq + 1:
            # The snapshot we recovered from (possibly an older fallback)
            # needs every record after its seq; a tail that starts later
            # means those records were pruned or lost, and "recovering"
            # would silently drop acknowledged history.
            raise WalCorruptionError(
                f"WAL tail starts at seq {tail[0]['seq']} but the snapshot "
                f"covers through {base_seq} — records "
                f"{base_seq + 1}..{tail[0]['seq'] - 1} are missing"
            )
        return tail, origins

    def _resolve_transactions(
        self,
        tail: list[dict[str, Any]],
        origins: list[tuple[str, int]],
        report: RecoveryReport,
    ) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
        """Strip txn framing; discard (and truncate away) an uncommitted tail.

        A committed transaction appears as ``txn_begin``, its statement
        records, ``txn_commit`` — all appended as one batch under the
        committer's write serialization, so an *unterminated* group can
        only be the physical tail of the log: the crash landed mid-append,
        after some complete frames were already on disk but before the
        commit marker. Those records were never acknowledged (the commit
        call had not returned), so they are discarded **and truncated from
        the segment file** — otherwise the next append would bury them
        mid-log where a later recovery could no longer tell them apart
        from committed history. An unterminated group anywhere else, or a
        ``txn_commit`` with no open group, is real corruption.

        Returns ``(surviving_records, replayable_records)`` — the second
        with the marker records removed.
        """
        replayable: list[dict[str, Any]] = []
        pending: list[dict[str, Any]] | None = None
        pending_index = 0
        for i, record in enumerate(tail):
            op = record.get("op")
            if op == "txn_begin":
                if pending is not None:
                    raise WalCorruptionError(
                        f"nested txn_begin at seq {record.get('seq')}"
                    )
                pending = []
                pending_index = i
            elif op == "txn_commit":
                if pending is None:
                    raise WalCorruptionError(
                        f"txn_commit without txn_begin at seq "
                        f"{record.get('seq')}"
                    )
                replayable.extend(pending)
                pending = None
            elif pending is not None:
                pending.append(record)
            else:
                replayable.append(record)
        if pending is None:
            return tail, replayable
        report.uncommitted_txn_records = len(tail) - pending_index
        begin_path, begin_offset = origins[pending_index]
        self._truncate_uncommitted(begin_path, begin_offset)
        return tail[:pending_index], replayable

    def _truncate_uncommitted(self, path: str, offset: int) -> None:
        """Erase everything from ``path``@``offset`` to the end of the WAL.

        The uncommitted group may have spanned a rotation (``append_batch``
        rotates mid-batch), so any segment *after* ``path`` goes entirely.
        """
        doomed = [
            seg_path
            for _, seg_path in wal.list_segments(self.wal_dir)
            if seg_path > path
        ]
        for seg_path in doomed:
            os.remove(seg_path)
        self._truncate_segment(path, offset)

    def _truncate_segment(self, path: str, valid_bytes: int) -> None:
        if valid_bytes <= 0:
            os.remove(path)
        else:
            with open(path, "r+b") as handle:
                handle.truncate(valid_bytes)
                handle.flush()
                os.fsync(handle.fileno())
        wal.fsync_directory(self.wal_dir)

    # ---------------------------------------------------------------- logging

    def log(self, entry: dict[str, Any]) -> int:
        """Assign the next sequence number and append the record durably.

        Callers serialize writes themselves (the server's writer lock; a
        single-threaded embedded caller); the internal lock only protects
        the manager's own counters against checkpoint threads.
        """
        return self.log_batch([entry])[0]

    def log_batch(self, entries: "list[dict[str, Any]]") -> list[int]:
        """Append records with consecutive seqs and **one** sync decision.

        The durable half of the batched execution path
        (:meth:`BeliefDBMS.execute_batch`) — and, via :meth:`log`, the
        single-record path too. On an append failure the manager goes
        **fail-stop**: the caller already applied these operations in
        memory, so memory is now ahead of the log, and accepting any
        further write would let *logged* history depend on an *unlogged*
        op and brick recovery with a replay divergence. Refusing all
        future writes keeps the disk state a consistent (if older)
        prefix; the failed records were never acknowledged — the
        exception propagates — so the durability contract holds: restart
        and recover from disk. Returns the assigned seqs.
        """
        if not entries:
            return []
        with self._lock:
            self._ensure_open()
            first = self.last_seq + 1
            last = first + len(entries) - 1
            records = [
                ({"seq": first + i, **entry}, first + i)
                for i, entry in enumerate(entries)
            ]
            try:
                if self._append_timer is None:
                    self._writer.append_batch(records)
                else:
                    watch = Stopwatch()
                    self._writer.append_batch(records)
                    self._append_timer.observe(watch.elapsed_s())
                    self._batch_sizes.observe(len(entries))
            except Exception as exc:
                seq_desc = (
                    f"seq {first}" if first == last else f"seqs {first}..{last}"
                )
                self._failed = f"WAL append for {seq_desc} failed: {exc}"
                try:
                    self._writer.close()
                except Exception:  # noqa: BLE001 — same broken disk
                    pass
                raise DurabilityError(self._failed) from exc
            self.last_seq = last
            self.records_since_checkpoint += len(entries)
            return [seq for _, seq in records]

    def log_transaction(self, entries: "list[dict[str, Any]]") -> list[int]:
        """Append one committed transaction durably: framed, one fsync.

        The records travel as a single :meth:`log_batch` —
        ``txn_begin`` + the statement records + ``txn_commit`` with
        consecutive seqs and **one** sync decision, so a commit costs one
        fsync regardless of how many statements it groups. Recovery treats
        the group atomically: a crash that tears the append anywhere
        before the commit marker discards the whole group
        (:meth:`_resolve_transactions`), so a partially-persisted commit
        is never replayed. Returns the assigned seqs (markers included).
        """
        if not entries:
            return []
        with self._lock:
            self._ensure_open()
            begin_seq = self.last_seq + 1
            records = [
                {"op": "txn_begin", "count": len(entries)},
                *entries,
                {"op": "txn_commit", "begin": begin_seq},
            ]
            seqs = self.log_batch(records)
            self.transactions_logged += 1
            return seqs

    def should_checkpoint(self) -> bool:
        """Has ``checkpoint_every`` elapsed since the last checkpoint?"""
        return (
            self.checkpoint_every > 0
            and self.records_since_checkpoint >= self.checkpoint_every
        )

    # ------------------------------------------------------------ checkpoints

    def checkpoint(self, db: Any) -> int:
        """Snapshot ``db`` at the current seq; prune covered WAL segments.

        The caller must hold whatever lock serializes writes to ``db`` (the
        server takes its exclusive writer lock), so the snapshot observes a
        consistent state that includes every logged record up to
        ``last_seq`` and nothing beyond it.
        """
        with self._lock:
            self._ensure_open()
            seq = self.last_seq
            snap.write_snapshot(self.snapshot_dir, db, seq)
            snap.prune_snapshots(self.snapshot_dir, self.keep_snapshots)
            # Prune the WAL only back to the *oldest retained* snapshot, not
            # the one just written: recovery falls back to an older snapshot
            # when the newest file is damaged, and that fallback needs the
            # WAL records since *its* seq to still exist. keep_snapshots=1
            # degenerates to pruning at the new snapshot's seq.
            retained = snap.list_snapshots(self.snapshot_dir)
            self._prune_wal(retained[0][0] if retained else seq)
            self.last_checkpoint_seq = seq
            self.records_since_checkpoint = 0
            self.checkpoints += 1
            return seq

    def _prune_wal(self, snapshot_seq: int) -> int:
        """Remove segments wholly covered by the snapshot.

        Segment *i* covers ``[first_seq_i, first_seq_{i+1})``, so it is
        redundant exactly when the next segment starts at or below
        ``snapshot_seq + 1``. The newest segment is always kept (it is the
        append target).
        """
        segments = wal.list_segments(self.wal_dir)
        removed = 0
        for (first_seq, path), (next_first, _) in zip(segments, segments[1:]):
            if next_first <= snapshot_seq + 1:
                try:
                    os.remove(path)
                    removed += 1
                except OSError:
                    pass
        if removed:
            wal.fsync_directory(self.wal_dir)
        return removed

    # ------------------------------------------------------------------ stats

    def stats(self) -> dict[str, Any]:
        """JSON-serializable durability counters (for ``snapshot_stats``)."""
        with self._lock:
            segments = wal.list_segments(self.wal_dir)
            out: dict[str, Any] = {
                "data_dir": self.data_dir,
                "sync": self.sync,
                "last_seq": self.last_seq,
                "last_checkpoint_seq": self.last_checkpoint_seq,
                "records_since_checkpoint": self.records_since_checkpoint,
                "checkpoints": self.checkpoints,
                "checkpoint_every": self.checkpoint_every,
                "transactions_logged": self.transactions_logged,
                "wal_segments": len(segments),
                "wal_bytes": sum(
                    os.path.getsize(path)
                    for _, path in segments
                    if os.path.exists(path)
                ),
                "wal_records_written": self._writer.records_written,
                "snapshots": len(snap.list_snapshots(self.snapshot_dir)),
            }
            if self.last_recovery is not None:
                out["last_recovery"] = self.last_recovery.as_dict()
            return out

    # -------------------------------------------------------------- lifecycle

    @property
    def failed(self) -> bool:
        """True after a WAL append failure put the manager in fail-stop."""
        return self._failed is not None

    def ensure_writable(self) -> None:
        """Raise unless this manager can durably log another write.

        The BDMS calls this *before* mutating in-memory state, so a
        failed-stop or closed manager refuses writes without first applying
        them — memory never drifts further than the single operation whose
        append originally failed (and that one was never acknowledged).
        """
        self._ensure_open()

    def _ensure_open(self) -> None:
        if self._failed is not None:
            raise DurabilityError(
                f"durability manager is failed-stop ({self._failed}); "
                "restart the process and recover from disk"
            )
        if self._closed:
            raise DurabilityError("durability manager is closed")

    def flush(self) -> None:
        with self._lock:
            if not self._closed:
                self._writer.flush()

    def close(self) -> None:
        """Flush and release the directory lock. Does **not** checkpoint —
        close is crash-equivalent by design (recovery must work either way);
        callers wanting a fast next startup checkpoint first."""
        with self._lock:
            if self._closed:
                return
            self._writer.close()
            if fcntl is not None:
                try:
                    fcntl.flock(self._lock_file.fileno(), fcntl.LOCK_UN)
                except OSError:
                    pass
            self._lock_file.close()
            self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "DurabilityManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"<DurabilityManager {self.data_dir} sync={self.sync} "
            f"seq={self.last_seq} ({state})>"
        )
