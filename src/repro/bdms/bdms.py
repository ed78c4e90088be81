"""The Belief Database Management System facade.

:class:`BeliefDBMS` is the user-facing entry point that ties the whole stack
together: an external schema, the canonical relational representation
(:class:`~repro.storage.store.BeliefStore`), the incremental update algorithms
of Sect. 5.3, the BeliefSQL front end of Fig. 1, and a choice of query
backend:

* ``"engine"`` (default) — Algorithm 1 translated to non-recursive Datalog on
  the built-in relational engine;
* ``"sqlite"`` — the same translation rendered once into SQL, executed on
  a ``sqlite3`` mirror of the pinned version (resynced lazily after
  updates), the closest analogue of the paper's deployment on a commercial
  RDBMS; it answers every select, ``WITH`` selects included;
* ``"naive"`` — the Def. 14 reference evaluator (slow; for testing);
* ``"lazy"`` — query-time default application on a lazy store (Sect. 6.3).

Thread safety (MVCC): the store is **multi-versioned**. Every write path
runs under an internal write mutex and bumps the version epoch; every
read pins an immutable copy-on-write snapshot of the store
(:mod:`repro.storage.mvcc`) and evaluates against it — so queries are
safe to run concurrently with writes, never block behind them, and always
see a single-version-consistent state. Writers still serialize against
each other (the network layer's writer-preference lock additionally
keeps a stream of readers from starving them). On the ``"sqlite"`` backend each pinned
version lazily owns its own mirror, so even sqlite reads no longer need
exclusive access. See ``docs/concurrency.md`` for the full model.

Two styles of use. The facade, with SQL text and typed results::

    db = BeliefDBMS(sightings_schema())
    carol = db.add_user("Carol"); bob = db.add_user("Bob")
    db.execute_sql("insert into Sightings values "
                   "('s1','Carol','bald eagle','6-14-08','Lake Forest')")
    rows = db.execute_sql("select S.sid, S.species from "
                          "BELIEF 'Bob' Sightings as S").rows

And the DB-API-style surface of :mod:`repro.api`, with ``?`` parameter
binding, typed :class:`~repro.api.result.Result` values, and an LRU
prepared-statement cache underneath (parse+compile once, bind many)::

    from repro.api import connect

    with connect(db, user="Carol") as conn:
        cur = conn.cursor()
        cur.execute("insert into Sightings values (?,?,?,?,?)",
                    ("s1", "Carol", "bald eagle", "6-14-08", "Lake Forest"))
        result = cur.execute(
            "select S.sid, S.species from BELIEF ? Sightings as S",
            ("Bob",))
        result.columns   # ('sid', 'species')
        cur.fetchall()

Transactions (:meth:`~BeliefDBMS.begin_transaction` /
:meth:`~BeliefDBMS.commit_transaction`) group DML into atomic units — see
:mod:`repro.bdms.transaction`. Every DML route (autocommit, batch, commit,
and a transaction's read view) applies a statement to a store through
:func:`repro.bdms.dml.apply_compiled`, and only there.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Literal, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover — type-only import (avoids a cycle)
    from repro.durability.manager import DurabilityManager

from repro.bdms.dml import apply_compiled
from repro.bdms.result import Result, natural_order
from repro.bdms.transaction import Transaction
from repro.beliefsql.ast import (
    DeleteStatement,
    InsertStatement,
    SelectStatement,
    Statement,
    UpdateStatement,
)
from repro.beliefsql.compiler import (
    CompiledDelete,
    CompiledInsert,
    CompiledLifecycleSelect,
    CompiledSelect,
    CompiledUpdate,
    compile_delete,
    compile_insert,
    compile_query,
    compile_select_prepared,
    compile_update,
)
from repro.beliefsql.parser import parse_beliefsql
from repro.core.database import BeliefDatabase
from repro.core.kripke import KripkeStructure, canonical_kripke
from repro.core.paths import User
from repro.core.schema import ExternalSchema, Value
from repro.core.statements import NEGATIVE, POSITIVE, BeliefStatement, Sign
from repro.core.worlds import BeliefWorld
from repro.errors import (
    BeliefDBError,
    LifecycleConflictError,
    LifecycleError,
    QueryError,
    RejectedUpdateError,
    TransactionAbortedError,
    TransactionError,
)
from repro.lifecycle.model import STATUSES as LIFECYCLE_STATUSES
from repro.lifecycle.model import check_status
from repro.obs.clock import Stopwatch
from repro.obs.metrics import MetricsRegistry
from repro.query.bcq import BCQuery, LifecycleSelect
from repro.query.lazy import evaluate_lazy
from repro.query.naive import evaluate_naive, evaluate_naive_with
from repro.query.parser import parse_bcq
from repro.relational.datalog import plan_cache_stats
from repro.storage.mvcc import Version, VersionManager
from repro.storage.store import BeliefStore
from repro.storage.updates import delete_tuple, insert_statement, insert_tuple

_BACKENDS = ("engine", "sqlite", "naive", "lazy")

StatementKind = Literal["select", "insert", "delete", "update"]

CompiledStatement = Union[
    CompiledSelect,
    CompiledLifecycleSelect,
    CompiledInsert,
    CompiledDelete,
    CompiledUpdate,
]


def _rejected_insert(path: tuple, t: Any, sign: Sign) -> RejectedUpdateError:
    """Strict mode's error for an insert Alg. 4 refused."""
    return RejectedUpdateError(
        f"insert rejected: {t} with sign {sign} conflicts "
        f"with explicit beliefs at path {path!r} (or is a duplicate)"
    )


def execute_entry(sql: str, params: Sequence[Value]) -> dict[str, Any]:
    """The replayable template+params record one effective DML execution
    contributes to the WAL. Single source of truth for the shape — the
    single-statement, batched, and transactional write paths all build
    their records here, so recovery can never see diverging formats."""
    return {"op": "execute", "sql": sql, "params": list(params)}


@dataclass(frozen=True)
class PreparedStatement:
    """A parsed+compiled BeliefSQL statement, bindable to parameter vectors.

    Obtained from :meth:`BeliefDBMS.prepare` (and cached there); execute with
    :meth:`BeliefDBMS.execute_prepared`. ``statement`` is the raw AST before
    any session rewriting — the server rewrites it per connection and
    re-prepares the rewritten form through the same cache.
    """

    sql: str
    statement: Statement
    kind: StatementKind
    param_count: int
    columns: tuple[str, ...]
    compiled: CompiledStatement


class BeliefDBMS:
    """A complete belief database management system (prototype of Sect. 6).

    Parameters
    ----------
    schema:
        The external schema users see (e.g. :func:`repro.sightings_schema`).
    backend:
        Query backend; see the module docstring.
    eager:
        Materialize implicit beliefs (the paper's representation). With
        ``eager=False`` the store keeps only explicit annotations and queries
        are forced through the lazy evaluator.
    strict:
        When True (default), rejected updates (Alg. 4 returning false) raise
        :class:`RejectedUpdateError`; otherwise they return False/0 silently.
    stmt_cache_size:
        Capacity of the LRU prepared-statement cache (parse+compile results
        keyed on SQL text / statement AST). 0 disables caching.
    durability:
        An optional :class:`~repro.durability.manager.DurabilityManager`.
        When given, the constructor first *recovers* (newest snapshot + WAL
        tail replayed into this instance), then logs every subsequently
        accepted write to the WAL before the call returns — see
        :meth:`checkpoint`, :meth:`restore`, and :meth:`close`.
    """

    def __init__(
        self,
        schema: ExternalSchema,
        backend: str = "engine",
        eager: bool = True,
        strict: bool = True,
        stmt_cache_size: int = 128,
        durability: "DurabilityManager | None" = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if backend not in _BACKENDS:
            raise BeliefDBError(
                f"unknown backend {backend!r}; pick one of {_BACKENDS}"
            )
        if not eager and backend in ("engine", "sqlite"):
            backend = "lazy"
        self.schema = schema
        self.backend = backend
        self.strict = strict
        self.store = BeliefStore(schema, eager=eager)
        # MVCC: every write runs under this mutex and bumps the epoch;
        # every read pins a copy-on-write snapshot (see read_view()). The
        # RLock nests — the auto-checkpoint and the lifecycle writes take
        # it again inside an already-held write section.
        self._write_mutex = threading.RLock()
        #: SQL text / AST -> PreparedStatement; query object -> its
        #: compiled select (:meth:`query`).
        self._stmt_cache: OrderedDict[Any, Any] = OrderedDict()
        self._stmt_cache_size = max(0, stmt_cache_size)
        self._stmt_lock = threading.Lock()
        self._stmt_stats = {
            "hits": 0, "misses": 0, "evictions": 0, "invalidations": 0,
        }
        self._durability: "DurabilityManager | None" = None
        self._in_recovery = False
        self._txn_stats = {
            "begun": 0, "committed": 0, "rolled_back": 0, "aborted": 0,
            "failed": 0, "rows_committed": 0,
        }
        self._checkpoint_failures = 0
        self._checkpoint_retry_after = 0
        #: The metrics registry this database (and anything built on it —
        #: the network server adopts the same instance) reports into.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._stmt_hist = self.metrics.histogram(
            "beliefdb_statement_seconds",
            "BeliefSQL statement execution time by statement kind.",
            labels=("kind",),
        )
        self._stmt_timers = {
            kind: self._stmt_hist.labels(kind=kind)
            for kind in ("select", "insert", "delete", "update", "commit")
        }
        cache_events = self.metrics.counter(
            "beliefdb_stmt_cache_events_total",
            "Prepared-statement cache events (hit/miss/eviction/invalidation).",
            labels=("event",),
        )
        self._cache_events = {
            event: cache_events.labels(event=event)
            for event in ("hit", "miss", "eviction", "invalidation")
        }
        lifecycle_ops = self.metrics.counter(
            "beliefdb_lifecycle_ops_total",
            "Applied lifecycle operations by action.",
            labels=("action",),
        )
        self._lifecycle_ops = {
            action: lifecycle_ops.labels(action=action)
            for action in ("propose", "transition", "decay_sweep")
        }
        lifecycle_transitions = self.metrics.counter(
            "beliefdb_lifecycle_transitions_total",
            "Applied lifecycle status transitions by target status.",
            labels=("to",),
        )
        self._lifecycle_transitions = {
            status: lifecycle_transitions.labels(to=status)
            for status in LIFECYCLE_STATUSES
        }
        self._lifecycle_conflicts = self.metrics.counter(
            "beliefdb_lifecycle_conflicts_total",
            "Lifecycle transitions rejected as conflicts (CAS mismatch or "
            "a move the transition table forbids).",
        )
        # The gauges reach the store through a weak reference: a callback
        # holding the database would keep a dropped one — its whole store —
        # alive until the next full cyclic collection.
        this = weakref.ref(self)

        def of_store(read: Callable[[BeliefStore], float]) -> Callable[[], float]:
            def value() -> float:
                db = this()
                return float(read(db.store)) if db is not None else 0.0

            return value

        self.metrics.gauge(
            "beliefdb_lifecycle_tracked_beliefs",
            "Belief statements with a lifecycle record.",
        ).set_function(of_store(lambda store: store.lifecycle.record_count()))
        self.metrics.gauge(
            "beliefdb_lifecycle_audit_events",
            "Events in the append-only lifecycle audit log.",
        ).set_function(of_store(lambda store: store.lifecycle.audit_count()))
        self._lifecycle_sweep_hist = self.metrics.histogram(
            "beliefdb_lifecycle_sweep_seconds",
            "Wall time of confidence decay sweeps.",
        )
        index_builds = self.metrics.counter(
            "beliefdb_engine_index_builds_total",
            "Full passes that built an engine hash index: shared (by the "
            "live table, maintained from then on) or private (by an MVCC "
            "fork or a transaction read view, discarded with it).",
            labels=("scope",),
        )
        for scope in ("shared", "private"):
            index_builds.labels(scope=scope).set_function(of_store(
                lambda store, scope=scope: store.engine.index_counters.builds[scope]
            ))
        self.metrics.counter(
            "beliefdb_engine_index_stale_skipped_total",
            "Index bucket candidates a probe skipped because the probing "
            "table version does not hold that rowid.",
        ).set_function(
            of_store(lambda store: store.engine.index_counters.stale_skipped)
        )
        self.metrics.gauge(
            "beliefdb_engine_index_pending_removals",
            "Deleted rowids still in index buckets because a live fork "
            "taken before the delete may probe for them.",
        ).set_function(
            of_store(lambda store: store.engine.index_stats()["pending_removals"])
        )
        self.metrics.counter(
            "beliefdb_engine_rule_compiles_total",
            "Datalog rule shapes compiled into plans (plan-cache misses); "
            "process-wide, like the cache.",
        ).set_function(lambda: plan_cache_stats()["compiles"])
        #: The MVCC version manager: epoch counter, snapshot cache, pin
        #: accounting, and version GC (``mvcc_*`` metrics).
        self.versions = VersionManager(metrics=self.metrics)
        if durability is not None:
            self.attach_durability(durability)

    # ------------------------------------------------------------- durability

    @property
    def durability(self) -> "DurabilityManager | None":
        """The attached durability manager, or None for an ephemeral BDMS."""
        return self._durability

    def attach_durability(self, manager: "DurabilityManager") -> dict[str, Any]:
        """Recover state from ``manager``'s data dir and start WAL logging.

        The database must be empty (attach at construction time); returns
        the recovery report as a plain dict.
        """
        if self._durability is not None:
            raise BeliefDBError("a durability manager is already attached")
        report = manager.recover(self)
        self._durability = manager
        manager.bind_metrics(self.metrics)
        return report.as_dict()

    def checkpoint(self) -> int:
        """Write a snapshot at the current WAL position; returns its seq.

        Callers that share this BDMS across threads (the network server)
        must hold their exclusive write lock — the snapshot must observe a
        quiescent state.
        """
        if self._durability is None:
            raise BeliefDBError("no durability manager attached")
        with self._write_mutex:
            return self._durability.checkpoint(self)

    def restore(self) -> dict[str, Any]:
        """Discard in-memory state and rebuild it from disk.

        Round-trips the database through its own durable representation
        (newest snapshot + WAL tail); with ``sync="always"`` this is a
        no-op on content. Returns the recovery report.
        """
        if self._durability is None:
            raise BeliefDBError("no durability manager attached")
        with self._write_mutex:
            self.store = self._replacement_store()
            self.invalidate_statements()
            try:
                return self._durability.recover(self).as_dict()
            finally:
                # The live store was replaced wholesale: drop every cached
                # version so no new pin reuses a fork of the old object.
                self.versions.invalidate()

    def _replacement_store(self) -> BeliefStore:
        """An empty store to rebuild into; the index counters carry on."""
        store = BeliefStore(self.schema, eager=self.store.eager)
        store.engine.index_counters.absorb(self.store.engine.index_counters)
        return store

    def close(self) -> None:
        """Flush and release durable resources, and let go of the cached
        version no reader has pinned (a closed database that is then
        dropped frees its store at once: the cached version and its
        manager point at each other)."""
        self.versions.retire_idle()
        if self._durability is not None:
            self._durability.close()

    def _check_durable_writable(self) -> None:
        """Refuse a write up front when it could never be made durable.

        Checked *before* the in-memory mutation: once the manager is
        failed-stop (or closed), applying further writes would serve
        phantom never-durable state to readers while telling the writers
        their operations failed.
        """
        if self._durability is not None and not self._in_recovery:
            self._durability.ensure_writable()

    def _log_durable(self, entry: dict[str, Any]) -> None:
        """Append one accepted write to the WAL (fsync'd per policy).

        Called *after* the in-memory mutation and *before* the operation
        returns, so an acknowledgement implies the record is on disk. No-op
        while recovering (replayed ops must not be re-logged).
        """
        if self._durability is None or self._in_recovery:
            return
        self._durability.log(entry)
        self._maybe_checkpoint()

    def _maybe_checkpoint(self) -> None:
        """Auto-checkpoint when due — non-fatally, with backoff.

        Runs only after the triggering write is applied AND logged
        (acknowledged-durable), so a checkpoint failure must not surface
        as a failure of that write: the caller would conclude the write
        failed and retry it, duplicating it after the next recovery
        replays both. Failures are counted (``auto_checkpoint_failures``
        in :meth:`snapshot_stats`) and back off a full
        ``checkpoint_every`` worth of records before the next attempt —
        an O(database) snapshot build must not be retried on every
        single write against a full disk.
        """
        manager = self._durability
        if manager is None or not manager.should_checkpoint():
            return
        if manager.records_since_checkpoint < self._checkpoint_retry_after:
            return
        try:
            with self._write_mutex:
                manager.checkpoint(self)
            self._checkpoint_retry_after = 0
        except Exception:  # noqa: BLE001 — the logged write already stands
            self._checkpoint_failures += 1
            self._checkpoint_retry_after = (
                manager.records_since_checkpoint + manager.checkpoint_every
            )

    # ------------------------------------------------------------------- MVCC

    @contextmanager
    def _writing(self):
        """The write mutex, held for a write to the store's tables.

        Lets go of the current version first if no reader has it pinned:
        the write retires it anyway (every path below bumps the epoch or
        invalidates), and a table copies its rows on write only for forks
        that are still alive.
        """
        with self._write_mutex:
            self.versions.retire_idle()
            yield

    def pin_version(self) -> Version:
        """Pin the current store version; pair with :meth:`release_version`.

        Takes the write mutex briefly so a pin can never observe a write
        in progress — the fork is exactly the state the last completed
        write left behind (the epoch's frozen snapshot).
        """
        with self._write_mutex:
            return self.versions.pin(self.store)

    def release_version(self, version: Version) -> None:
        """Drop one pin; a retired, fully-released version is GC'd."""
        self.versions.release(version)

    @contextmanager
    def read_view(self):
        """``with db.read_view() as v:`` — a pinned immutable snapshot.

        ``v.store`` is a fully functional :class:`BeliefStore` frozen at
        ``v.epoch``; reads against it never take a lock and never observe
        concurrent writers. Hold it only as long as one logical read —
        long-lived holders (watch loops) must re-pin per iteration, or the
        version GC cannot reclaim retired snapshots.
        """
        version = self.pin_version()
        try:
            yield version
        finally:
            self.release_version(version)

    # ------------------------------------------------------------------ users

    def add_user(self, name: str | None = None, uid: User | None = None) -> User:
        """Register a user; returns the user id (auto-assigned int if absent).

        Registering a user changes name→uid resolution, so the prepared-
        statement cache is invalidated (cheap, and provably safe against
        any compiled artifact that captured a stale resolution).
        """
        self._check_durable_writable()
        with self._write_mutex:
            self.invalidate_statements()
            try:
                assigned = self.store.add_user(name=name, uid=uid)
            finally:
                self.versions.bump()
            self._log_durable({
                "op": "add_user",
                "uid": assigned,
                "name": self.store.user_name(assigned),
            })
        return assigned

    def users(self) -> dict[User, str]:
        """All registered users as ``{uid: name}``."""
        return self.store.users()

    def uid(self, name: str) -> User:
        """Look up a user id by display name."""
        return self.store.uid_for_name(name)

    # ------------------------------------------------------------------ DML

    def insert(
        self,
        path: Sequence[Any],
        relation: str,
        values: Sequence[Value],
        sign: Sign | str = POSITIVE,
    ) -> bool:
        """Insert a belief statement programmatically.

        ``path`` entries may be user ids or display names; the empty path
        inserts plain (root-world) content. Returns True on success; conflicts
        with explicit beliefs raise (strict) or return False.
        """
        self._check_durable_writable()
        with self._writing():
            resolved = tuple(self.store.resolve_user(u) for u in path)
            t = self.schema.tuple(relation, *values)
            try:
                ok = insert_tuple(self.store, resolved, t, Sign.coerce(sign))
            finally:
                # Bump even on rejection: idWorld may have materialized new
                # worlds before the conflict was detected.
                self.versions.bump()
            if ok:
                self._log_durable({
                    "op": "insert",
                    "path": list(resolved),
                    "relation": relation,
                    "values": list(t.values),
                    "sign": str(Sign.coerce(sign)),
                })
        if not ok and self.strict:
            raise _rejected_insert(resolved, t, Sign.coerce(sign))
        return ok

    def delete(
        self,
        path: Sequence[Any],
        relation: str,
        values: Sequence[Value],
        sign: Sign | str = POSITIVE,
    ) -> bool:
        """Delete one explicit belief statement (implicit ones cannot be)."""
        self._check_durable_writable()
        with self._writing():
            resolved = tuple(self.store.resolve_user(u) for u in path)
            t = self.schema.tuple(relation, *values)
            try:
                ok = delete_tuple(self.store, resolved, t, Sign.coerce(sign))
            finally:
                self.versions.bump()
            if ok:
                self._log_durable({
                    "op": "delete",
                    "path": list(resolved),
                    "relation": relation,
                    "values": list(t.values),
                    "sign": str(Sign.coerce(sign)),
                })
        if not ok and self.strict:
            raise RejectedUpdateError(
                f"delete rejected: no explicit statement for {t} at {resolved!r}"
            )
        return ok

    # ------------------------------------------------------------------ queries

    def query(
        self,
        query: BCQuery | LifecycleSelect | str,
        version: Version | None = None,
    ) -> set[tuple]:
        """Answer a belief conjunctive query (object or textual form), or a
        bound ``WITH`` select (:meth:`CompiledLifecycleSelect.bind`).

        The query object is compiled once (:func:`compile_query`) and kept
        in the statement cache under itself, as :meth:`prepare_parsed`
        keeps an AST: asking the same query again runs its held
        translation. Evaluates against a pinned immutable snapshot: with
        ``version`` omitted, a version is pinned for the duration of this
        one query; callers composing several reads into one consistent view
        pin once via :meth:`read_view` and pass the version through.
        """
        if isinstance(query, str):
            query = parse_bcq(query, self.schema)
        compiled = self._cached(query, lambda: compile_query(query, self.schema))
        return self._select(compiled, (), version)

    def _select(
        self,
        compiled: CompiledSelect | CompiledLifecycleSelect,
        params: Sequence[Value],
        version: Version | None,
    ) -> set[tuple]:
        """A compiled select's answer for ``params`` on ``version``, or on
        a version pinned for this one read."""
        if version is not None:
            return self._answer(compiled, params, version)
        with self.read_view() as pinned:
            return self._answer(compiled, params, pinned)

    def _answer(
        self,
        compiled: CompiledSelect | CompiledLifecycleSelect,
        params: Sequence[Value],
        version: Version,
    ) -> set[tuple]:
        """Evaluate one select against a pinned snapshot.

        The engine runs the statement's held translation, and sqlite the
        SQL rendered from it on the version's mirror; the lazy backend runs
        the translation of a ``WITH`` select too (it reads explicit rows
        only). The naive backend, and lazy for a BCQ, evaluate the bound
        query.
        """
        store = version.store
        lifecycle = isinstance(compiled, CompiledLifecycleSelect)
        if self.backend == "sqlite":
            # The per-version mirror is shared by every reader of this
            # version; first use pays one sync, the lock serializes the
            # sqlite connection (never the writer, never other versions).
            with version.mirror_lock:
                return compiled.run(store, params, version.synced_mirror())
        if self.backend == "engine" or (lifecycle and self.backend == "lazy"):
            return compiled.run(store, params)
        query = compiled.bind(params)
        if query is None:
            return set()
        if lifecycle:
            return evaluate_naive_with(store, query)
        if self.backend == "lazy":
            return evaluate_lazy(store, query)
        return evaluate_naive(
            store.explicit_db, query, users=store.users()
        )

    # ------------------------------------------------------------------ BeliefSQL

    def prepare(self, sql: str) -> PreparedStatement:
        """Parse and compile one BeliefSQL statement, through the LRU cache.

        Repeated ``prepare`` of the same SQL text skips the parse *and* the
        compile; ``?`` placeholders are bound per execution by
        :meth:`execute_prepared`.
        """
        return self._cached(sql, lambda: self._compile(parse_beliefsql(sql), sql))

    def prepare_parsed(self, statement: Statement) -> PreparedStatement:
        """Compile an already-parsed statement, through the same cache.

        Keyed on the (hashable, frozen) AST itself — the server uses this for
        session-rewritten statements so the rewrite costs no re-parse.
        """
        return self._cached(statement, lambda: self._compile(statement, None))

    def _cached(self, key: Any, build: Callable[[], Any]) -> Any:
        """``build()``, kept in the LRU statement cache under ``key``: a
        :class:`PreparedStatement` under SQL text or an AST, a compiled
        select under a query object."""
        with self._stmt_lock:
            cached = self._stmt_cache.get(key)
            if cached is not None:
                self._stmt_cache.move_to_end(key)
                self._stmt_stats["hits"] += 1
                hit = True
            else:
                self._stmt_stats["misses"] += 1
                hit = False
        self._cache_events["hit" if hit else "miss"].inc()
        if hit:
            return cached
        prepared = build()
        if self._stmt_cache_size:
            evicted = 0
            with self._stmt_lock:
                if key not in self._stmt_cache:
                    self._stmt_cache[key] = prepared
                    while len(self._stmt_cache) > self._stmt_cache_size:
                        self._stmt_cache.popitem(last=False)
                        self._stmt_stats["evictions"] += 1
                        evicted += 1
            if evicted:
                self._cache_events["eviction"].inc(evicted)
        return prepared

    def _compile(
        self, statement: Statement, sql_text: str | None
    ) -> PreparedStatement:
        kind: StatementKind
        compiled: CompiledStatement
        columns: tuple[str, ...] = ()
        if isinstance(statement, SelectStatement):
            kind = "select"
            compiled = compile_select_prepared(statement, self.schema)
            columns = compiled.columns
        elif isinstance(statement, InsertStatement):
            kind = "insert"
            compiled = compile_insert(statement, self.schema)
        elif isinstance(statement, DeleteStatement):
            kind = "delete"
            compiled = compile_delete(statement, self.schema)
        elif isinstance(statement, UpdateStatement):
            kind = "update"
            compiled = compile_update(statement, self.schema)
        else:
            raise BeliefDBError(f"unsupported statement {statement!r}")
        return PreparedStatement(
            sql=sql_text if sql_text is not None else str(statement),
            statement=statement,
            kind=kind,
            param_count=compiled.param_count,
            columns=columns,
            compiled=compiled,
        )

    def prepare_for_session(
        self, sql_or_prepared: str | PreparedStatement, session: Any
    ) -> PreparedStatement:
        """Prepare a statement with a session's default-path rewrite applied.

        ``session`` is anything with a ``rewrite(statement) -> statement``
        method (:class:`repro.server.session.ClientSession`). The rewrite
        happens here — at prepare-for-execution time, not at ``prepare``
        time — so one cached handle follows the session's *current* default
        belief path; the rewritten AST is re-prepared through the same cache
        keyed on the AST itself, so neither form is parsed or compiled twice.
        """
        if isinstance(sql_or_prepared, str):
            prepared = self.prepare(sql_or_prepared)
        else:
            prepared = sql_or_prepared
        statement = session.rewrite(prepared.statement)
        if statement is not prepared.statement:
            prepared = self.prepare_parsed(statement)
        return prepared

    def invalidate_statements(self) -> int:
        """Drop every cached prepared statement; returns how many."""
        with self._stmt_lock:
            dropped = len(self._stmt_cache)
            self._stmt_cache.clear()
            self._stmt_stats["invalidations"] += dropped
        if dropped:
            self._cache_events["invalidation"].inc(dropped)
        return dropped

    def execute_prepared(
        self,
        prepared: PreparedStatement,
        params: Sequence[Value] = (),
        version: Version | None = None,
    ) -> Result:
        """Bind ``params`` into a prepared statement and execute it.

        This is the primitive everything else reduces to: a select's
        translation and plans belong to the compiled statement, so on the
        engine an execution checks the binding, resolves the path users on
        the pinned version and runs the held plans; one ``prepare`` serves
        many parameter vectors.

        ``version`` (selects only) evaluates against that pinned snapshot
        instead of pinning a fresh one — how transactional sessions read
        through their write buffer (:meth:`Transaction.read_version`).
        """
        watch = Stopwatch()
        compiled = prepared.compiled
        rows: list[tuple] = []
        if prepared.kind == "select":
            rows = natural_order(self._select(compiled, params, version))
            rowcount = len(rows)
        else:
            # DML: WAL-logged as one replayable template + parameter record.
            self._check_durable_writable()
            with self._writing():
                try:
                    rowcount = self._execute_dml_row(compiled, params)
                finally:
                    self.versions.bump()
                if rowcount:
                    self._log_durable(execute_entry(prepared.sql, params))
        elapsed_ms = self._observe_statement(prepared.kind, watch)
        return Result(
            kind=prepared.kind,
            rows=rows,
            columns=prepared.columns,
            rowcount=rowcount,
            status=f"{prepared.kind.upper()} {rowcount}",
            elapsed_ms=elapsed_ms,
        )

    def execute_batch(
        self,
        prepared: PreparedStatement | str,
        param_rows: Sequence[Sequence[Value]],
    ) -> Result:
        """Bind one prepared DML statement N times as a single batch.

        The cheap path for many-small-writes workloads: one parse+compile
        (via the statement cache), one pass over ``param_rows``, and — on a
        durable database — **one** WAL batch append with a single fsync
        instead of N (see :meth:`DurabilityManager.log_batch`). The network
        server additionally runs the whole batch under a single write-lock
        acquisition, so a batch costs one lock handoff rather than N.

        Returns an aggregate :class:`Result` (``rows=[]``, ``columns=()``,
        ``rowcount`` summing the individual executions) — the same shape
        ``Cursor.executemany`` has always produced. Selects are rejected.
        In strict mode a rejected row raises mid-batch; rows already
        applied stay applied (and logged) — the same semantics as issuing
        the statements one by one.
        """
        if isinstance(prepared, str):
            prepared = self.prepare(prepared)
        if prepared.kind == "select":
            raise BeliefDBError("execute_batch is for DML, not select")
        watch = Stopwatch()
        self._check_durable_writable()
        compiled = prepared.compiled
        total = 0
        entries: list[dict[str, Any]] = []
        with self._writing():
            try:
                for params in param_rows:
                    rowcount = self._execute_dml_row(compiled, params)
                    if rowcount:
                        entries.append(execute_entry(prepared.sql, params))
                    total += rowcount
            finally:
                # One epoch bump for the whole batch: readers see the batch
                # prefix exactly as the log records it.
                self.versions.bump()
                # Log whatever was applied even when a later row raised
                # (strict mode): memory and log must agree on the prefix.
                self._log_durable_batch(entries)
        elapsed_ms = self._observe_statement(prepared.kind, watch)
        return Result(
            kind=prepared.kind,
            rows=[],
            columns=(),
            rowcount=total,
            status=f"{prepared.kind.upper()} {total}",
            elapsed_ms=elapsed_ms,
        )

    def _log_durable_batch(self, entries: list[dict[str, Any]]) -> None:
        """Batch analogue of :meth:`_log_durable` (one fsync for N records)."""
        if not entries or self._durability is None or self._in_recovery:
            return
        self._durability.log_batch(entries)
        self._maybe_checkpoint()

    # ------------------------------------------------------------ transactions

    def begin_transaction(self) -> Transaction:
        """Open a :class:`Transaction`: a write buffer for an atomic commit.

        The database holds no state for an open transaction — staging
        never touches the store — so any number of sessions may have
        transactions open concurrently; only :meth:`commit_transaction`
        needs the caller's write serialization (the server's exclusive
        lock).
        """
        self._note_txn("begun")
        return Transaction(self)

    def commit_transaction(self, txn: Transaction) -> Result:
        """Apply every staged statement of ``txn`` as one atomic unit.

        The whole commit runs under the caller's single write
        serialization (the server acquires its exclusive lock once), so
        readers observe either none or all of the transaction. On a
        durable database the commit is logged as **one** WAL append —
        begin/commit framing around the statement records, one fsync — so
        recovery after a crash replays the transaction entirely or not at
        all (:meth:`DurabilityManager.log_transaction`).

        If any statement is rejected mid-apply (strict mode), the applied
        prefix is **rolled back** — the store is rebuilt from the explicit
        annotations captured at commit start, the same deterministic
        rebuild recovery uses — and :class:`TransactionAbortedError` is
        raised; the database is exactly as it was before the commit and
        nothing reaches the log.

        A *WAL append failure* after a successful apply is different: the
        frames (commit marker included) may already have reached the disk
        even though the fsync failed, so claiming a rollback could be a
        lie the next recovery contradicts. The batched-write contract
        applies instead — the transaction stays **fully** applied in
        memory (readers see all of it, never part), the manager goes
        fail-stop refusing every further write, and the
        :class:`DurabilityError` propagates: the commit was never
        acknowledged, so after a restart it may or may not have survived,
        but never partially.

        Returns an aggregate ``Result(kind="commit")`` whose ``rowcount``
        sums the statements' effects.
        """
        if txn.db is not self:
            raise TransactionError(
                "transaction belongs to a different database"
            )
        if not txn.open:
            raise TransactionError(f"transaction is {txn.state}, not open")
        watch = Stopwatch()
        staged = txn.statements()
        if not staged:
            # Empty transaction: nothing to validate, apply, or log.
            txn._mark("committed")
            self._note_txn("committed")
            return Result(
                kind="commit", rows=[], columns=(), rowcount=0,
                status="COMMIT 0",
                elapsed_ms=self._observe_statement("commit", watch),
            )
        self._check_durable_writable()
        with self._writing():
            # Undo capture: the explicit annotations + users are the complete
            # logical state (snapshots persist exactly this); references only,
            # so the capture is O(annotations) pointer copies per commit.
            # Deliberate tradeoff: inverse-delta undo does not compose with
            # the eager closure (one insert ripples implicit beliefs across
            # worlds), and the capture must precede the first mutation —
            # mid-apply failures can occur even in non-strict mode (unknown
            # users, schema violations), so strict-only capture would be
            # unsound.
            undo_users = list(self.store.users().items())
            undo_statements = list(self.store.explicit_statements())
            entries: list[dict[str, Any]] = []
            applied_statements = 0
            total = 0
            try:
                for s in staged:
                    for params in s.param_rows:
                        rowcount = self._execute_dml_row(
                            s.prepared.compiled, params
                        )
                        total += rowcount
                        if rowcount:
                            entries.append(
                                execute_entry(s.prepared.sql, params)
                            )
                    applied_statements += 1
            except BeliefDBError as exc:
                # Apply-time failure: nothing was logged, so rolling memory
                # back really does leave the database unchanged (the rebuild
                # ends by invalidating cached versions, so no new pin can
                # observe the aborted prefix).
                self._rollback_rebuild(undo_users, undo_statements)
                txn._mark("aborted")
                self._note_txn("aborted")
                raise TransactionAbortedError(
                    f"transaction aborted at statement "
                    f"{min(applied_statements + 1, len(staged))} of "
                    f"{len(staged)} and rolled back — the database is "
                    f"unchanged: {exc}"
                ) from exc
            # One epoch bump for the whole transaction: the commit installs
            # the new version atomically — a reader pins either the full
            # pre-commit or the full post-commit state, never a prefix
            # (mid-apply pins block on the write mutex held here).
            self.versions.bump()
            # Durability AFTER a complete apply. On failure the
            # DurabilityError propagates without touching memory — see the
            # docstring for why a rollback here would be unsound (written
            # frames can survive a failed fsync, so the next recovery may
            # legitimately replay this never-acknowledged commit). The txn
            # still reaches a terminal state ("failed": applied in memory,
            # durability unknown) so the begun-vs-terminal ledger in
            # snapshot_stats stays reconciled.
            if (
                entries
                and self._durability is not None
                and not self._in_recovery
            ):
                try:
                    self._durability.log_transaction(entries)
                except BeliefDBError:
                    txn._mark("failed")
                    self._note_txn("failed")
                    raise
        txn._mark("committed")
        self._note_txn("committed")
        with self._stmt_lock:
            self._txn_stats["rows_committed"] += total
        # Auto-checkpoint only once the commit is final: a checkpoint
        # failure must not make a durably-committed transaction look
        # failed (shared non-fatal step with the autocommit paths).
        if not self._in_recovery:
            self._maybe_checkpoint()
        elapsed_ms = self._observe_statement("commit", watch)
        return Result(
            kind="commit",
            rows=[],
            columns=(),
            rowcount=total,
            status=f"COMMIT {total}",
            elapsed_ms=elapsed_ms,
        )

    def _observe_statement(self, kind: str, watch: Stopwatch) -> float:
        """Record one statement execution's latency; returns elapsed ms.

        The single source of ``Result.elapsed_ms`` — the same
        :class:`~repro.obs.clock.Stopwatch` reading feeds the
        ``beliefdb_statement_seconds`` histogram and the Result, so wire
        payloads and scraped quantiles can never disagree about the clock.
        """
        elapsed = watch.elapsed_s()
        timer = self._stmt_timers.get(kind)
        if timer is None:
            timer = self._stmt_hist.labels(kind=kind)
            self._stmt_timers[kind] = timer
        timer.observe(elapsed)
        return elapsed * 1000.0

    def _note_txn(self, key: str) -> None:
        # begin/rollback run under the server's *shared* read lock (they
        # touch no store state), so the counters need their own lock.
        with self._stmt_lock:
            self._txn_stats[key] += 1

    def _rollback_rebuild(self, users, statements) -> None:
        """Restore the pre-commit state after a failed commit.

        Deterministic rebuild from the captured explicit annotations —
        exactly how snapshots restore — so the rolled-back store is
        semantically identical to the pre-commit one (the closure of the
        same explicit statements under the same users).
        """
        from repro.durability.snapshot import statement_order

        # Transactions stage only DML, so the lifecycle registry (records +
        # audit log) is untouched by the failed commit: carry the object
        # over to the rebuilt store instead of losing it — after the
        # statements, so its relations are rebuilt with the new world and
        # tuple ids.
        lifecycle = self.store.lifecycle
        self.store = self._replacement_store()
        self.invalidate_statements()
        for uid, name in users:
            self.store.add_user(name=name, uid=uid)
        for statement in sorted(statements, key=statement_order):
            if not insert_statement(self.store, statement):
                raise BeliefDBError(
                    "transaction rollback failed to rebuild the pre-commit "
                    f"state: {statement} re-rejected"
                )
        self.store.lifecycle = lifecycle
        # Same wholesale-replacement rule as restore(): cached versions of
        # the discarded store must not serve new pins.
        self.versions.invalidate()

    def execute_sql(self, sql: str, params: Sequence[Value] = ()) -> Result:
        """Execute one BeliefSQL statement with ``?`` parameters; typed result."""
        return self.execute_prepared(self.prepare(sql), params)

    def _execute_dml_row(
        self, compiled: CompiledStatement, params: Sequence[Value]
    ) -> int:
        """Bind one DML parameter vector and apply it to the live store.

        The one place a statement reaches the store: autocommit, batch and
        commit all call this under the write mutex and log / bump the epoch
        themselves. Returns rows affected; in strict mode an insert that
        Alg. 4 rejects raises instead, exactly like :meth:`insert`.
        """
        rowcount = apply_compiled(self.store, compiled, params)
        if not rowcount and self.strict and isinstance(compiled, CompiledInsert):
            op = compiled.bind(params)
            path = tuple(self.store.resolve_user(u) for u in op.path)
            t = self.schema.tuple(op.relation, *op.values)
            raise _rejected_insert(path, t, op.sign)
        return rowcount

    # ------------------------------------------------------------------ views

    def world(
        self, path: Sequence[Any], version: Version | None = None
    ) -> BeliefWorld:
        """The entailed belief world at ``path`` (ids or names).

        Reads from a pinned snapshot — pass ``version`` to compose several
        world reads into one single-version-consistent view.
        """
        if version is not None:
            store = version.store
            resolved = tuple(store.resolve_user(u) for u in path)
            return store.entailed_world(resolved)
        with self.read_view() as pinned:
            store = pinned.store
            resolved = tuple(store.resolve_user(u) for u in path)
            return store.entailed_world(resolved)

    def believes(
        self,
        path: Sequence[Any],
        relation: str,
        values: Sequence[Value],
        sign: Sign | str = POSITIVE,
    ) -> bool:
        """Entailment check: does ``D |= path t^sign`` hold? One probe of
        the tuple's key in the pinned version (:meth:`BeliefStore.entails`)."""
        with self.read_view() as pinned:
            store = pinned.store
            resolved = tuple(store.resolve_user(u) for u in path)
            t = self.schema.tuple(relation, *values)
            return store.entails(resolved, t, Sign.coerce(sign))

    def kripke(self) -> KripkeStructure:
        """The canonical Kripke structure of the current belief database."""
        return canonical_kripke(
            self.store.explicit_db, users=self.store.users().keys()
        )

    def belief_database(self) -> BeliefDatabase:
        """A snapshot of the explicit annotations as a core belief database."""
        return self.store.to_belief_database()

    # ------------------------------------------------------------- lifecycle

    @contextmanager
    def _pinned_store(self, version: Version | None):
        """The store of ``version``, or a freshly pinned one for this read."""
        if version is not None:
            yield version.store
        else:
            with self.read_view() as pinned:
                yield pinned.store

    def _apply_lifecycle(self, record: dict[str, Any]) -> dict[str, Any]:
        """Apply one lifecycle WAL record to the live store and log it.

        The single write path for lifecycle state: the live API methods
        below build a record (stamping ``ts`` exactly once) and recovery
        replays the logged record verbatim — both land here, so the audit
        history after a crash replays bit-identical to the one before it.
        The registry's ``apply`` validates before mutating, so a raised
        conflict leaves no state change and nothing in the log.
        """
        self._check_durable_writable()
        with self._writing():
            try:
                result = self.store.lifecycle.apply(record)
            except LifecycleConflictError:
                self._lifecycle_conflicts.inc()
                raise
            self.versions.bump()
            self._log_durable(record)
        self._lifecycle_ops[record["action"]].inc()
        if record["action"] == "transition":
            self._lifecycle_transitions[record["to"]].inc()
        return result

    def apply_lifecycle_record(self, record: dict[str, Any]) -> dict[str, Any]:
        """Replay entry point for ``{"op": "lifecycle"}`` WAL records."""
        return self._apply_lifecycle(record)

    def lifecycle_propose(
        self,
        path: Sequence[Any],
        relation: str,
        values: Sequence[Value],
        sign: Sign | str = POSITIVE,
        *,
        actor: Any = None,
        confidence: float = 1.0,
        decay: str = "none",
        derived_from: Sequence[str] = (),
        ts: float | None = None,
    ) -> dict[str, Any]:
        """Start lifecycle tracking for one explicit belief statement.

        The statement must already exist (insert first, then propose); it
        enters the state machine as PROPOSED with the given confidence,
        decay model spec, and provenance links (parent belief ids and/or
        user references). Returns the record view, including the stable
        ``belief`` id used by transitions and audit queries.
        """
        with self._write_mutex:
            resolved = tuple(self.store.resolve_user(u) for u in path)
            t = self.schema.tuple(relation, *values)
            coerced = Sign.coerce(sign)
            if BeliefStatement(resolved, t, coerced) not in self.store.explicit_db:
                raise LifecycleError(
                    f"no explicit statement {t} with sign {coerced} at path "
                    f"{resolved!r} — insert it before proposing lifecycle "
                    "tracking"
                )
            record = {
                "op": "lifecycle",
                "action": "propose",
                "path": list(resolved),
                "relation": relation,
                "values": list(t.values),
                "sign": str(coerced),
                "actor": (
                    self.store.resolve_user(actor) if actor is not None
                    else None
                ),
                "confidence": float(confidence),
                "decay": decay,
                "derived_from": list(derived_from),
                "ts": float(ts) if ts is not None else time.time(),
            }
            return self._apply_lifecycle(record)

    def lifecycle_transition(
        self,
        belief: str,
        to: str,
        *,
        actor: Any = None,
        expect: str | None = None,
        reason: str | None = None,
        ts: float | None = None,
    ) -> dict[str, Any]:
        """Move one tracked belief to a new status.

        ``expect`` is an optional compare-and-swap precondition: when given
        and the belief's current status differs, the transition raises
        :class:`~repro.errors.LifecycleConflictError` without applying —
        how racing curators lose cleanly. Moves the transition table
        forbids raise the same conflict error.
        """
        with self._write_mutex:
            record = {
                "op": "lifecycle",
                "action": "transition",
                "belief": belief,
                "to": to,
                "expect": expect,
                "actor": (
                    self.store.resolve_user(actor) if actor is not None
                    else None
                ),
                "reason": reason,
                "ts": float(ts) if ts is not None else time.time(),
            }
            return self._apply_lifecycle(record)

    def lifecycle_decay_sweep(
        self, *, actor: Any = None, now: float | None = None
    ) -> dict[str, Any]:
        """Apply every record's decay model to its confidence, in one sweep.

        Deterministic (the sweep timestamp rides the WAL record), audited
        as a single event. Returns ``{"swept": n, "changed": m}``.
        """
        watch = Stopwatch()
        with self._write_mutex:
            record = {
                "op": "lifecycle",
                "action": "decay_sweep",
                "actor": (
                    self.store.resolve_user(actor) if actor is not None
                    else None
                ),
                "ts": float(now) if now is not None else time.time(),
            }
            result = self._apply_lifecycle(record)
        self._lifecycle_sweep_hist.observe(watch.elapsed_s())
        return result

    def lifecycle_get(
        self, belief: str, version: Version | None = None
    ) -> dict[str, Any] | None:
        """The lifecycle record view for one belief id, or None."""
        with self._pinned_store(version) as store:
            record = store.lifecycle.get(belief)
            return record.view() if record is not None else None

    def lifecycle_list(
        self,
        path: Sequence[Any] | None = None,
        status: str | None = None,
        limit: int | None = None,
        version: Version | None = None,
    ) -> list[dict[str, Any]]:
        """Tracked beliefs, oldest first — the curation review queue.

        Filter by belief world (``path``) and/or status (e.g. all
        CHALLENGED beliefs awaiting resolution).
        """
        if status is not None:
            check_status(status)
        with self._pinned_store(version) as store:
            resolved = (
                tuple(store.resolve_user(u) for u in path)
                if path is not None else None
            )
            views = []
            for record in store.lifecycle.records():
                if resolved is not None and record.key[0] != resolved:
                    continue
                if status is not None and record.status != status:
                    continue
                views.append(record.view())
                if limit is not None and len(views) >= limit > 0:
                    break
            return views

    def audit_log(
        self,
        belief: str | None = None,
        limit: int | None = None,
        version: Version | None = None,
    ) -> list[dict[str, Any]]:
        """The append-only audit history (oldest first), optionally for one
        belief id. A pinned MVCC read — never blocks behind writers."""
        with self._pinned_store(version) as store:
            return store.lifecycle.audit_events(belief=belief, limit=limit)

    def provenance(
        self, belief: str, version: Version | None = None
    ) -> dict[str, Any]:
        """The derivation chain of one belief (``derived_from`` closure)."""
        with self._pinned_store(version) as store:
            return store.lifecycle.provenance(belief)

    # ------------------------------------------------------------------ stats

    def annotation_count(self) -> int:
        """Number of explicit belief statements (the paper's ``n``)."""
        return len(self.store.explicit_db)

    def size(self) -> int:
        """``|R*|``: total internal tuples (Sect. 5.4)."""
        return self.store.total_rows()

    def relative_overhead(self) -> float:
        """``|R*| / n`` — Table 1 / Fig. 6's size measure."""
        return self.store.relative_overhead(max(1, self.annotation_count()))

    def snapshot_stats(self) -> dict[str, Any]:
        """A JSON-serializable snapshot of size/config counters.

        This is the introspection hook the network server exposes as its
        ``stats`` op; keep every value a plain str/int/float/bool/dict.
        """
        with self._stmt_lock:
            cache_stats = {
                "size": len(self._stmt_cache),
                "capacity": self._stmt_cache_size,
                **self._stmt_stats,
            }
            txn_stats = dict(self._txn_stats)
        lookups = cache_stats["hits"] + cache_stats["misses"]
        cache_stats["hit_rate"] = (
            cache_stats["hits"] / lookups if lookups else 0.0
        )
        timing: dict[str, Any] = {}
        for key, child in self._stmt_hist.children():
            if not child.count:
                continue
            timing[key[0]] = {
                "count": child.count,
                "total_ms": round(child.sum * 1000.0, 3),
                "p50_ms": round(child.quantile(0.5) * 1000.0, 3),
                "p99_ms": round(child.quantile(0.99) * 1000.0, 3),
            }
        # Store-derived numbers come from one pinned snapshot, so a stats
        # call concurrent with writers still reports one consistent
        # version (keyed below as "version"). The pin is released before
        # returning — long-lived watch loops therefore never hold a
        # version across iterations (the GC regression tests pin this).
        with self.read_view() as pinned:
            store = pinned.store
            epoch = pinned.epoch
            annotations = len(store.explicit_db)
            total_rows = store.total_rows()
            by_status: dict[str, int] = {}
            for record in store.lifecycle.records():
                by_status[record.status] = by_status.get(record.status, 0) + 1
            store_section = {
                "eager": store.eager,
                "users": len(store.users()),
                "worlds": store.world_count(),
                "annotations": annotations,
                "total_rows": total_rows,
                "relative_overhead": total_rows / max(1, annotations),
                "row_counts": dict(store.row_counts()),
                "lifecycle": {
                    "tracked": store.lifecycle.record_count(),
                    "audit_events": store.lifecycle.audit_count(),
                    "by_status": by_status,
                },
            }
        return {
            "backend": self.backend,
            "strict": self.strict,
            "version": epoch,
            **store_section,
            "statement_cache": cache_stats,
            "statement_timing": timing,
            "transactions": txn_stats,
            "mvcc": self.versions.snapshot_stats(),
            "engine_indexes": self.store.engine.index_stats(),
            "engine_plans": plan_cache_stats(),
            "auto_checkpoint_failures": self._checkpoint_failures,
            "durability": (
                self._durability.stats()
                if self._durability is not None else None
            ),
        }

    def describe(self) -> str:
        counts = self.store.row_counts()
        lines = [
            f"BeliefDBMS(backend={self.backend!r}, eager={self.store.eager})",
            f"  users: {len(self.users())}, worlds: {self.store.world_count()}, "
            f"annotations: {self.annotation_count()}, |R*|: {self.size()}",
        ]
        lines += [f"    {name}: {count}" for name, count in counts.items()]
        return "\n".join(lines)
