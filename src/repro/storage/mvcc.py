"""Multi-version concurrency control over the belief store.

The MVCC layer turns the mutable :class:`~repro.storage.store.BeliefStore`
into a sequence of immutable **versions**. The live store advances through
integer *epochs* — every committed write bumps the epoch — and readers
**pin** a version: a copy-on-write fork of the store frozen at pin time
(:meth:`BeliefStore.fork_snapshot`). Pinned reads therefore never take the
write lock and never observe a concurrent writer's effects; a scan started
at epoch *N* returns the epoch-*N* state no matter how many commits land
mid-scan.

Lifecycle of a version:

1. **build** — the first pin at a given epoch forks the live store under
   the manager's mutex, in O(tables). The row dicts stay shared, V's
   ``e='y'`` rows among them (the store's only record of the explicit
   statements), and so do the world, user and tuple registries: the live
   store copies one before changing it only while a fork still holds it,
   and a fork ignores tids at or above its watermark. The fork's tables
   probe the live tables' hash indexes instead of building any
   (:mod:`repro.relational.table`);
2. **share** — later pins at the same epoch reuse the cached fork, each
   incrementing its pin count;
3. **retire** — a write bumps the epoch, so the version stops being
   current; it survives while readers still hold pins. A version nobody
   has pinned is dropped when the write *starts*
   (:meth:`VersionManager.retire_idle`): the live store copies a table's
   row dict or a registry on write only for forks that still exist, so a
   write no reader is watching copies nothing;
4. **GC** — once its pin count reaches zero and it is no longer current,
   the version is dropped (``mvcc_gc_reclaimed_total`` counts these) and
   its sqlite mirror, if it built one, is handed to the manager. Dropping
   it is also what tells the live tables (which track their forks by weak
   reference) that rowids deleted since may leave the index buckets. The
   current epoch's version stays cached even at zero pins so back-to-back
   reads with no interleaved write share one snapshot.

For the ``"sqlite"`` query backend a version's first sqlite read pays one
:meth:`SqliteMirror.sync`; no reader ever waits on a writer for it. The
mirror is **carried forward**: the version takes the one the manager holds
and advances it by the rows that changed since (O(delta), see
:mod:`repro.relational.sqlite_backend`). That is sound because every
managed version is a fork of the one live store at a later time, so each
table's rowids only grow along the chain. The sync is a build from the
empty base instead in three cases:

* the manager holds no mirror — the first sqlite read ever, or the
  previous version is still pinned and keeps its mirror so its readers'
  results stay frozen;
* the store was replaced wholesale (restore, rollback rebuild): new tables
  restart their rowids, so :meth:`VersionManager.invalidate` drops the
  carried mirror, and a straggler handed in later by a reader pinned
  before it fails the lineage check table by table;
* the version is a transaction's private read view: it replayed staged
  writes onto its fork under rowids the live store will issue again for
  other rows, so it neither takes nor hands on a shared mirror.

At most one mirror is carried, so live sqlite connections never exceed
live versions + 1.

Metrics (all under the shared registry): ``beliefdb_mvcc_live_versions``,
``beliefdb_mvcc_active_pins`` (gauges), ``beliefdb_mvcc_pins_total``,
``beliefdb_mvcc_gc_reclaimed_total``, ``beliefdb_mvcc_snapshot_builds_total``,
``beliefdb_mvcc_mirror_syncs_total{kind}`` (counters), and
``beliefdb_mvcc_snapshot_build_seconds``, ``beliefdb_mvcc_mirror_sync_seconds``,
``beliefdb_mvcc_mirror_delta_rows`` (histograms).
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

from repro.obs.clock import monotonic_s
from repro.obs.metrics import COUNT_BUCKETS

if TYPE_CHECKING:  # pragma: no cover — type-only imports (avoid cycles)
    from repro.obs.metrics import MetricsRegistry
    from repro.relational.sqlite_backend import SqliteMirror, SyncReport
    from repro.storage.store import BeliefStore


class Version:
    """One immutable snapshot of the store, pinned by zero or more readers.

    ``store`` is a copy-on-write fork frozen at ``epoch``; treat it as
    read-only. ``pins`` is managed by the owning :class:`VersionManager`
    under its mutex. The sqlite mirror is synced on first use and shared by
    every reader of this version (its own lock serializes them — sqlite
    connections are not concurrency-friendly). ``manager`` is the
    :class:`VersionManager` whose carried mirror this version may take;
    a private fork that was written to (a transaction read view) has none.
    The version holds it by weak reference: the manager holds the version,
    and a cycle would keep a dropped database's fork alive until a full
    collection.
    """

    __slots__ = ("epoch", "store", "pins", "_manager", "_mirror", "_mirror_lock")

    def __init__(
        self,
        epoch: int,
        store: "BeliefStore",
        manager: "VersionManager | None" = None,
    ) -> None:
        self.epoch = epoch
        self.store = store
        self.pins = 0
        self._manager = weakref.ref(manager) if manager else None
        self._mirror: "SqliteMirror | None" = None
        # RLock: callers hold it across sync + query (one mirror, many
        # reader threads); synced_mirror re-enters it harmlessly.
        self._mirror_lock = threading.RLock()

    def synced_mirror(self) -> "SqliteMirror":
        """This version's sqlite mirror, synced exactly once (lazily)."""
        from repro.relational.sqlite_backend import SqliteMirror

        with self._mirror_lock:
            if self._mirror is None:
                manager = self._manager and self._manager()
                mirror = manager.take_mirror(self.epoch) if manager else None
                if mirror is None:
                    mirror = SqliteMirror()
                start = monotonic_s()
                try:
                    report = mirror.sync(self.store.engine)
                except BaseException:
                    mirror.close()
                    raise
                if manager is not None:
                    manager.note_sync(report, monotonic_s() - start)
                self._mirror = mirror
            return self._mirror

    def detach_mirror(self) -> "SqliteMirror | None":
        """Give up the mirror (None if never built); the caller owns it."""
        with self._mirror_lock:
            mirror, self._mirror = self._mirror, None
            return mirror

    @property
    def mirror_lock(self) -> threading.RLock:
        """Serializes query execution on the shared per-version mirror."""
        return self._mirror_lock

    def close(self) -> None:
        """Release non-GC'able resources (the sqlite connection, if built)."""
        mirror = self.detach_mirror()
        if mirror is not None:
            mirror.close()

    def __repr__(self) -> str:
        return f"<Version epoch={self.epoch} pins={self.pins}>"


class VersionManager:
    """Epoch counter + version cache + pin accounting + GC.

    Owned by a :class:`~repro.bdms.bdms.BeliefDBMS`; the BDMS bumps the
    epoch after every committed write and pins versions for every read.
    The manager never holds a reference to the live store (the BDMS can
    replace it wholesale on restore/rollback) — ``pin`` receives it.
    """

    def __init__(self, metrics: "MetricsRegistry | None" = None) -> None:
        self._mutex = threading.Lock()
        self._epoch = 0
        self._versions: dict[int, Version] = {}
        #: The newest GC'd version's sqlite mirror and its epoch, waiting
        #: for the next version's first sqlite read to advance it.
        self._carried: "tuple[int, SqliteMirror] | None" = None
        self._stats = {
            "pins_total": 0,
            "snapshot_builds": 0,
            "gc_reclaimed": 0,
            "mirror_syncs_full": 0,
            "mirror_syncs_delta": 0,
            "mirror_delta_rows": 0,
        }
        self._pins_counter: Any = None
        self._gc_counter: Any = None
        self._builds_counter: Any = None
        self._build_hist: Any = None
        self._sync_counter: Any = None
        self._sync_hist: Any = None
        self._delta_rows_hist: Any = None
        if metrics is not None:
            self.bind_metrics(metrics)

    def bind_metrics(self, registry: "MetricsRegistry") -> None:
        registry.gauge(
            "beliefdb_mvcc_live_versions",
            "Store versions currently cached (current + still-pinned).",
        ).set_function(lambda: len(self._versions))
        registry.gauge(
            "beliefdb_mvcc_active_pins",
            "Reader pins currently held across all live versions.",
        ).set_function(self.active_pins)
        self._pins_counter = registry.counter(
            "beliefdb_mvcc_pins_total",
            "Version pins ever taken by readers.",
        )
        self._gc_counter = registry.counter(
            "beliefdb_mvcc_gc_reclaimed_total",
            "Retired store versions reclaimed by the version GC.",
        )
        self._builds_counter = registry.counter(
            "beliefdb_mvcc_snapshot_builds_total",
            "Copy-on-write snapshot forks built (first pin per epoch).",
        )
        self._build_hist = registry.histogram(
            "beliefdb_mvcc_snapshot_build_seconds",
            "Time to fork a copy-on-write snapshot of the store.",
        )
        self._sync_counter = registry.counter(
            "beliefdb_mvcc_mirror_syncs_total",
            "Sqlite mirror syncs: built from empty (full) or advanced (delta).",
            labels=("kind",),
        )
        self._sync_hist = registry.histogram(
            "beliefdb_mvcc_mirror_sync_seconds",
            "Time to sync a version's sqlite mirror, full or delta.",
        )
        self._delta_rows_hist = registry.histogram(
            "beliefdb_mvcc_mirror_delta_rows",
            "Rows inserted plus deleted by one delta sync of the mirror.",
            buckets=COUNT_BUCKETS,
        )

    # ------------------------------------------------------------------ epochs

    @property
    def epoch(self) -> int:
        """The current epoch (bumped by every committed write)."""
        return self._epoch

    def bump(self) -> int:
        """Advance the epoch after a committed write; GC newly-idle versions.

        The caller (the BDMS) invokes this under its write mutex, after the
        mutation is applied — so a pin taken at the new epoch forks the
        post-write state.
        """
        with self._mutex:
            self._epoch += 1
            self._gc_locked()
            return self._epoch

    def retire_idle(self) -> None:
        """Drop the current version unless a reader has it pinned.

        For the start of a write, under the BDMS write mutex (so no pin can
        rebuild it before the write lands): the write is about to retire it
        anyway, and while it lives every table the write touches copies its
        whole row dict for it.
        """
        with self._mutex:
            self._gc_locked(keep_current=False)

    # -------------------------------------------------------------------- pins

    def pin(self, store: "BeliefStore") -> Version:
        """Pin (and build, if first) the version of the current epoch.

        ``store`` must be the live store observed under the caller's write
        mutex (or any context in which no write can land concurrently), so
        the fork really is the epoch's frozen state. Pair every pin with a
        :meth:`release`.
        """
        with self._mutex:
            version = self._versions.get(self._epoch)
            if version is None:
                start = monotonic_s()
                version = Version(self._epoch, store.fork_snapshot(), self)
                self._versions[self._epoch] = version
                self._stats["snapshot_builds"] += 1
                if self._builds_counter is not None:
                    self._builds_counter.inc()
                    self._build_hist.observe(monotonic_s() - start)
            version.pins += 1
            self._stats["pins_total"] += 1
        if self._pins_counter is not None:
            self._pins_counter.inc()
        return version

    def release(self, version: Version) -> None:
        """Drop one pin; GC the version when retired and no longer pinned."""
        with self._mutex:
            version.pins -= 1
            self._gc_locked()

    @contextmanager
    def pinned(self, store: "BeliefStore") -> Iterator[Version]:
        """``with versions.pinned(db.store) as v:`` — pin, yield, release."""
        version = self.pin(store)
        try:
            yield version
        finally:
            self.release(version)

    # ---------------------------------------------------------------------- GC

    def _gc_locked(self, keep_current: bool = True) -> None:
        """Reclaim retired, unpinned versions. Caller holds the mutex."""
        doomed = [
            epoch
            for epoch, version in self._versions.items()
            if version.pins <= 0 and not (keep_current and epoch == self._epoch)
        ]
        for epoch in doomed:
            mirror = self._versions.pop(epoch).detach_mirror()
            if mirror is None:
                continue
            if self._carried is not None and self._carried[0] > epoch:
                mirror.close()  # the newer one stays
            else:
                self._replace_carried_locked((epoch, mirror))
        if doomed:
            self._stats["gc_reclaimed"] += len(doomed)
            if self._gc_counter is not None:
                self._gc_counter.inc(len(doomed))

    def invalidate(self) -> None:
        """Forget every cached version (live store replaced wholesale).

        Used by restore / rollback-rebuild: the epoch advances so already
        pinned versions stay valid for their readers, but no new pin may
        reuse a fork of the discarded store — nor advance a mirror of it:
        the replacement's tables restart their rowids.
        """
        with self._mutex:
            self._epoch += 1
            self._gc_locked()
            self._replace_carried_locked(None)

    # ----------------------------------------------------------------- mirrors

    def _replace_carried_locked(
        self, carried: "tuple[int, SqliteMirror] | None"
    ) -> None:
        """Close the carried mirror, if any, and carry ``carried`` instead."""
        if self._carried is not None:
            self._carried[1].close()
        self._carried = carried

    def take_mirror(self, epoch: int) -> "SqliteMirror | None":
        """Hand the carried mirror to the version at ``epoch``, which owns
        it from then on — unless there is none, or it is already past that
        epoch (a long-pinned reader syncing late): a mirror only advances.
        """
        with self._mutex:
            if self._carried is None or self._carried[0] >= epoch:
                return None
            (_, mirror), self._carried = self._carried, None
            return mirror

    def has_carried_mirror(self) -> bool:
        return self._carried is not None

    def note_sync(self, report: "SyncReport", seconds: float) -> None:
        """Account one mirror sync of a managed version."""
        with self._mutex:
            self._stats[f"mirror_syncs_{report.kind}"] += 1
            if report.kind == "delta":
                self._stats["mirror_delta_rows"] += report.rows
        if self._sync_counter is not None:
            self._sync_counter.labels(kind=report.kind).inc()
            self._sync_hist.observe(seconds)
            if report.kind == "delta":
                self._delta_rows_hist.observe(report.rows)

    # ------------------------------------------------------------------- views

    def live_versions(self) -> int:
        with self._mutex:
            return len(self._versions)

    def active_pins(self) -> int:
        with self._mutex:
            return sum(v.pins for v in self._versions.values())

    def snapshot_stats(self) -> dict[str, Any]:
        """JSON-plain counters for ``BeliefDBMS.snapshot_stats()["mvcc"]``."""
        with self._mutex:
            return {
                "epoch": self._epoch,
                "live_versions": len(self._versions),
                "active_pins": sum(v.pins for v in self._versions.values()),
                **self._stats,
            }

    def __repr__(self) -> str:
        return (
            f"<VersionManager epoch={self._epoch} "
            f"live={len(self._versions)}>"
        )
