"""The shard router: one wire endpoint in front of the worker fleet.

The router speaks the exact same wire protocol as a single belief server —
every existing client, ``connect()`` connection, Cursor, and transaction
path works unchanged against it — but executes nothing itself. Each request
is classified and either:

* **routed to one shard** — DML, ``believes``/``world`` lookups, and
  anything else addressed by a belief path. The path *head* (the outermost
  believer) picks the shard via the consistent-hash ring, so a user's whole
  world tree lives together;
* **fanned out** — ``worlds``, ``users``, ``stats``, ``metrics``, and a
  select joining worlds that live on several shards; results are merged
  (and re-paged through the session's cursor registry, so large merged
  results still stream in frame-sized pages);
* **answered locally** — ``ping``, ``login`` / ``whoami`` / ``set_path``
  and the rest of the session state, paging of router-held cursors, and
  the ``shard_status`` op.

The router keeps the same :class:`ClientSession` a server does, default
path in uids: a prefix-less DML statement goes through
``ClientSession.rewrite`` and travels with its path explicit, so every
worker resolves it identically.

Consistency rules:

* **Users are global.** User creation broadcasts an explicitly-pinned uid
  to every shard, so names and uids resolve identically everywhere; a shard
  that was down during a create is healed on first contact.
* **Transactions are single-shard.** ``begin`` is router-local; the first
  staged DML pins the transaction to its statement's shard; a later
  statement routing elsewhere gets a typed ``CROSS_SHARD_TXN`` error (the
  statement is *not* staged, the transaction stays open and usable).
* **A down shard is a typed error, not a hang.** Routing to an unhealthy or
  restarting shard raises ``SHARD_UNAVAILABLE`` immediately; the
  coordinator's restart brings the shard back with its WAL replayed.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Sequence

from repro.beliefsql.ast import SelectStatement, Statement
from repro.beliefsql.parser import parse_beliefsql
from repro.errors import (
    BeliefDBError,
    CrossShardTransactionError,
    LifecycleError,
    SchemaError,
    ShardUnavailableError,
    TransactionError,
    UnknownUserError,
)
from repro.obs.clock import monotonic_s
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import DEFAULT_CAPACITY, DEFAULT_THRESHOLD_MS
from repro.server import binproto, protocol
from repro.server.client import (
    BeliefClient,
    ConnectionLost,
    merge_batch_payload,
)
from repro.server.server import (
    BeliefServer,
    ClientSession,
    _page_size,
    _require,
)
from repro.shard.coordinator import Coordinator
from repro.shard.partitioning import (
    CONTENT_KEY,
    HashRing,
    path_head,
    statement_head,
)

#: Shard-count buckets for the fan-out histogram (how many shards one
#: request touched). Linear — fleets are small.
_FANOUT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


@dataclasses.dataclass(frozen=True)
class RouterStatement:
    """A prepared statement as the router sees it: text + parsed form.

    The router keeps the *original* SQL and its AST; the session default
    path is applied at execute time (exactly like the single server's
    prepare-vs-execute split) by rewriting the text and forwarding it
    one-shot — the worker's own statement cache makes re-preparation cheap.
    """

    sql: str
    statement: Statement
    kind: str
    param_count: int
    columns: tuple[str, ...]


class _RouterState:
    """Duck-typed stand-in for the BDMS the base server core expects.

    The router reuses :class:`BeliefServer`'s accept loop, framing, session
    lifecycle, admission control, and instrumentation — everything except
    the database. This stub satisfies the three attributes the inherited
    machinery touches (``metrics``, ``backend``, ``durability``).
    """

    backend = "engine"
    durability = None

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.metrics = registry if registry is not None else MetricsRegistry()


class RouterSession(ClientSession):
    """Router-side state of one client connection.

    The server's :class:`ClientSession` (identity, default path, prepared
    statements, the cursors merged fan-out results page through) plus what
    only the router needs: the per-shard upstream connections and the
    transaction pin. Served by the threaded core, so one session's requests
    are serial — no locking needed here.
    """

    def __init__(self, peer: str = "?") -> None:
        super().__init__(peer)
        #: shard -> (client, directory epoch at connect time).
        self.upstreams: dict[int, tuple[BeliefClient, int]] = {}
        self.in_txn = False
        #: Shard the open transaction is pinned to (None until first DML).
        self.txn_shard: int | None = None

    # ----------------------------------------------------------- upstreams

    def drop_upstream(self, shard: int) -> None:
        entry = self.upstreams.pop(shard, None)
        if entry is not None:
            try:
                entry[0].close()
            except Exception:  # noqa: BLE001 — already broken
                pass

    def abandon_transaction(self) -> bool:
        """Connection died: close upstreams; a pinned transaction dies with
        its upstream connection (the worker discards it)."""
        for shard in list(self.upstreams):
            self.drop_upstream(shard)
        had_txn = self.in_txn
        self.reset_txn()
        return had_txn

    def reset_txn(self) -> None:
        self.in_txn = False
        self.txn_shard = None


class BeliefRouter(BeliefServer):
    """The fleet's single wire endpoint (threaded core, no database).

    Inherits all of :class:`BeliefServer`'s networking — accept loop,
    framing with the configurable ceiling, session lifecycle, admission
    control, metrics/slow-op instrumentation — and replaces the dispatch
    layer with the op table's ``route`` column.
    """

    session_type = RouterSession

    def __init__(
        self,
        coordinator: Coordinator,
        host: str = "127.0.0.1",
        port: int = 0,
        max_sessions: int | None = None,
        max_inflight_requests: int | None = None,
        slow_op_ms: float | None = DEFAULT_THRESHOLD_MS,
        slow_op_capacity: int = DEFAULT_CAPACITY,
        max_frame_bytes: int | None = None,
        upstream_timeout: float = 30.0,
        registry: MetricsRegistry | None = None,
        wire: str = "auto",
        upstream_wire: str = "auto",
    ) -> None:
        super().__init__(
            _RouterState(registry),  # type: ignore[arg-type] — duck-typed stub
            host=host, port=port,
            max_sessions=max_sessions,
            max_inflight_requests=max_inflight_requests,
            slow_op_ms=slow_op_ms, slow_op_capacity=slow_op_capacity,
            max_frame_bytes=max_frame_bytes,
            wire=wire,
        )
        self.coordinator = coordinator
        self.ring = HashRing(coordinator.n_shards)
        self.upstream_timeout = upstream_timeout
        #: Codec preference for router->worker hops; negotiated per upstream
        #: connection, independently of whatever each client negotiated.
        self.upstream_wire = binproto.check_wire_mode(upstream_wire)
        #: The global user registry mirror: every create goes through the
        #: router (broadcast with a pinned uid), so these maps converge to
        #: the union of every shard's user table.
        self._users_by_name: dict[str, Any] = {}
        self._users_by_uid: dict[Any, str] = {}
        self._user_lock = threading.Lock()
        self._fanout_hist = self.metrics.histogram(
            "beliefdb_router_fanout_shards",
            "Shards touched by one fanned-out (scatter-gather) request.",
            buckets=_FANOUT_BUCKETS,
        )
        self._forward_hist = self.metrics.histogram(
            "beliefdb_router_forward_seconds",
            "Upstream round-trip latency per forwarded request, by shard.",
            labels=("shard",),
        )
        self._forward_counter = self.metrics.counter(
            "beliefdb_router_forwards_total",
            "Requests forwarded to workers, by shard and outcome.",
            labels=("shard", "status"),
        )

    # ------------------------------------------------------------- dispatch

    def _run_op(
        self, session: RouterSession, spec: protocol.OpSpec,
        params: dict[str, Any],
    ) -> Any:
        """Answer one op by the router rule in its op-table row."""
        if not spec.in_txn and session.in_txn:
            raise protocol.not_transactional(spec.name)
        if spec.route == "local":
            # Session ops (and ``shard_status``): the server core's handler
            # runs on the router's own session, through the router's
            # ``_resolve_user`` / ``_describe``.
            return getattr(self, f"_op_{spec.name}")(session, params)
        if spec.route == "by_path":
            return self._forward_by_path(session, spec.name, params)
        if spec.route == "fanout":
            return "\n\n".join(
                f"=== shard {shard} ===\n{text}"
                for shard, text in self._fanout(session, spec.name)
            )
        return getattr(self, f"_route_{spec.name}")(session, params)

    def _forward_by_path(
        self, rsession: RouterSession, op: str, params: dict[str, Any]
    ) -> Any:
        """Forward to the shard that owns the belief path's head. The
        path always travels explicit: workers hold no session for router
        upstreams. Everything else is the worker's to validate."""
        path = rsession.effective_path(params.get("path"))
        shard = self._shard_for_path(rsession, path)
        return self._forward(rsession, shard, op, **{**params, "path": list(path)})

    # ------------------------------------------------------------ upstreams

    def _upstream(self, rsession: RouterSession, shard: int) -> BeliefClient:
        """The session's connection to one shard, rebuilt when the
        directory epoch moved (worker restarted) or the socket died."""
        address, epoch = self.coordinator.directory.lookup(shard)
        cached = rsession.upstreams.get(shard)
        if cached is not None:
            client, cached_epoch = cached
            if cached_epoch == epoch and not client.closed:
                return client
            rsession.drop_upstream(shard)
        try:
            client = BeliefClient(
                *address, connect_retries=3, retry_delay=0.05,
                timeout=self.upstream_timeout, auto_reconnect=False,
                max_frame_bytes=self.max_frame_bytes,
                wire=self.upstream_wire,
            )
        except (ConnectionLost, OSError) as exc:
            raise ShardUnavailableError(
                f"shard {shard} refused a connection ({exc}); the worker "
                "may be restarting — retry"
            ) from exc
        rsession.upstreams[shard] = (client, epoch)
        return client

    def _forward(
        self, rsession: RouterSession, shard: int, op: str, **params: Any
    ) -> Any:
        return self._forward_fn(
            rsession, shard, op, lambda client: client.call(op, **params)
        )

    def _forward_fn(
        self,
        rsession: RouterSession,
        shard: int,
        op: str,
        fn: Any,
    ) -> Any:
        """Run ``fn(upstream_client)`` with shard bookkeeping: latency and
        outcome metrics, connection-loss translation to SHARD_UNAVAILABLE,
        and the unknown-user self-heal for shards that missed a create."""
        status = "ok"
        start = monotonic_s()
        try:
            client = self._upstream(rsession, shard)
            try:
                return fn(client)
            except UnknownUserError:
                if not self._heal_users(client):
                    raise
                return fn(client)
        except ConnectionLost as exc:
            rsession.drop_upstream(shard)
            if rsession.in_txn and rsession.txn_shard == shard:
                # The upstream transaction died with its connection; the
                # worker discards it. Clear the pin so the session is not
                # stuck addressing a transaction that no longer exists.
                rsession.reset_txn()
            status = "unavailable"
            raise ShardUnavailableError(
                f"shard {shard} connection lost mid-request ({exc}); the "
                "worker may be restarting — the request is safe to retry"
            ) from exc
        except ShardUnavailableError:
            status = "unavailable"
            raise
        except Exception:
            status = "error"
            raise
        finally:
            elapsed = monotonic_s() - start
            label = str(shard)
            self._forward_counter.labels(shard=label, status=status).inc()
            self._forward_hist.labels(shard=label).observe(elapsed)

    def _heal_users(self, client: BeliefClient) -> bool:
        """Replay the router's user registry onto one worker.

        A shard that was down during user creation missed the broadcast;
        the first op that trips over the gap lands here. Re-registering
        with pinned uids is idempotent (already-registered raises
        SchemaError, which just means that entry is fine)."""
        healed = False
        for name, uid in list(self._users_by_name.items()):
            try:
                client.call("add_user", name=name, uid=uid)
                healed = True
            except SchemaError:
                pass  # already there — converged
            except BeliefDBError:
                return healed
        return healed

    def _fanout(
        self,
        rsession: RouterSession,
        op: str,
        shards: Sequence[int] | None = None,
        **params: Any,
    ) -> list[tuple[int, Any]]:
        """Scatter one read to ``shards`` (default: every shard); raises
        SHARD_UNAVAILABLE if any target is down (a partial read would
        silently drop worlds)."""
        if shards is None:
            shards = list(range(self.ring.n_shards))
        results = [
            (shard, self._forward(rsession, shard, op, **params))
            for shard in shards
        ]
        self._fanout_hist.observe(float(len(shards)))
        return results

    # -------------------------------------------------------------- routing

    def _ring_key(self, rsession: RouterSession, head: Any) -> Any:
        """Normalize a path head for the ring: uids hash as their user's
        name (both spellings of one user must land on one shard). A uid
        wins over a name, as in ``BeliefStore.resolve_user``. A uid the
        registry mirror has not seen (a router restarted over existing
        shards) refreshes the mirror first."""
        if not isinstance(head, str) and head not in self._users_by_uid:
            self._refresh_users(rsession)
        return self._users_by_uid.get(head, head)

    def _shard_for_path(
        self, rsession: RouterSession, path: Sequence[Any] | None
    ) -> int:
        head = path_head(path, rsession.default_path)
        return self.ring.shard_for(self._ring_key(rsession, head))

    def _select_shards(
        self,
        rsession: RouterSession,
        statement: SelectStatement,
        bind: Sequence[Any],
    ) -> list[int]:
        """The shards a select's worlds live on.

        Every from item names exactly one world — the content world when
        it carries no BELIEF prefix — and a world is resident on exactly
        one shard. So the common single-world select forwards to one
        shard with exact single-node semantics, and only a select joining
        worlds that happen to live on different shards fans out.
        """
        shards = set()
        for item in statement.items:
            # Prefix-less from items read the plain content world — the
            # session default path applies to DML only, never to reads.
            head = statement_head(item.belief.path, tuple(bind), ())
            shards.add(self.ring.shard_for(self._ring_key(rsession, head)))
        return sorted(shards) or [self.ring.shard_for(CONTENT_KEY)]

    def _shard_for_statement(
        self,
        rsession: RouterSession,
        statement: Statement,
        bind: Sequence[Any],
    ) -> int:
        belief = getattr(statement, "belief", None)
        path = belief.path if belief is not None else ()
        head = statement_head(path, tuple(bind), rsession.default_path)
        return self.ring.shard_for(self._ring_key(rsession, head))

    # ---------------------------------------------------------------- users

    def _remember_user(self, uid: Any, name: str) -> None:
        self._users_by_name[name] = uid
        self._users_by_uid[uid] = name

    def _refresh_users(self, rsession: RouterSession) -> None:
        """Pull every reachable shard's user table into the mirror."""
        for shard in self.coordinator.directory.healthy_shards():
            try:
                listing = self._forward(rsession, shard, "users")
            except (ShardUnavailableError, BeliefDBError):
                continue
            for uid, name in listing:
                self._remember_user(uid, name)

    def _lookup_user(self, user: Any) -> tuple[Any, str] | None:
        if isinstance(user, str) and user in self._users_by_name:
            uid = self._users_by_name[user]
            return uid, self._users_by_uid[uid]
        if user in self._users_by_uid:
            return user, self._users_by_uid[user]
        return None

    def _resolve_user(
        self, rsession: RouterSession, user: Any, create: bool
    ) -> tuple[Any, str]:
        found = self._lookup_user(user)
        if found is None:
            self._refresh_users(rsession)
            found = self._lookup_user(user)
        if found is not None:
            return found
        if not create or not isinstance(user, str):
            raise UnknownUserError(f"unknown user reference {user!r}")
        return self._create_user(rsession, user)

    def _next_uid(self) -> int:
        numeric = [u for u in self._users_by_uid if isinstance(u, int)]
        return (max(numeric) + 1) if numeric else 1

    def _create_user(
        self, rsession: RouterSession, name: str | None, uid: Any = None
    ) -> tuple[Any, str]:
        """Create a user on EVERY shard under one router-wide lock.

        The uid is allocated by the router and *pinned* on each worker, so
        the fleet's uid space stays identical regardless of which shards
        were reachable when. Shards down right now are healed on first
        contact (see :meth:`_heal_users`)."""
        with self._user_lock:
            if name is not None:
                known = self._users_by_name.get(name)
                if known is not None:
                    if uid is not None and known != uid:
                        raise SchemaError(
                            f"user name {name!r} already registered"
                        )
                    return known, name
            if uid is None:
                uid = self._next_uid()
            display = name if name is not None else str(uid)
            broadcast_to = self.coordinator.directory.healthy_shards()
            if not broadcast_to:
                raise ShardUnavailableError(
                    "no shard is available to register the user on"
                )
            for shard in broadcast_to:
                try:
                    self._forward(
                        rsession, shard, "add_user", name=name, uid=uid
                    )
                except SchemaError:
                    # Already registered there (an earlier partial
                    # broadcast, or a heal beat us to it) — converged.
                    pass
            self._remember_user(uid, display)
            return uid, display

    # ------------------------------------------------------------ op bodies

    def _describe(self, rsession: RouterSession) -> dict[str, Any]:
        desc = rsession.describe()
        if not rsession.in_txn:
            desc["transaction"] = None
        elif rsession.txn_shard is None:
            desc["transaction"] = {"statements": 0, "rows": 0}
        else:
            # The pinned worker session holds the real staged counts.
            upstream = self._forward(rsession, rsession.txn_shard, "whoami")
            desc["transaction"] = upstream["transaction"]
        return desc

    def _route_add_user(
        self, rsession: RouterSession, params: dict[str, Any]
    ) -> Any:
        uid, _ = self._create_user(
            rsession, params.get("name"), uid=params.get("uid")
        )
        return uid

    def _route_users(
        self, rsession: RouterSession, params: dict[str, Any]
    ) -> Any:
        self._refresh_users(rsession)
        return [
            [uid, name]
            for uid, name in sorted(
                self._users_by_uid.items(), key=lambda kv: repr(kv[0])
            )
        ]

    # ------------------------------------------------- prepared statements

    def _route_prepare(
        self, rsession: RouterSession, params: dict[str, Any]
    ) -> Any:
        sql = _require(params, "sql")
        statement = parse_beliefsql(sql)
        # Metadata (kind, arity, columns) comes from a reference worker —
        # prepare there, read the envelope, release the handle. The router
        # keeps only text + AST; see RouterStatement.
        shards = self.coordinator.directory.healthy_shards()
        if not shards:
            raise ShardUnavailableError("no shard is available to prepare on")
        shard = shards[0]
        info = self._forward(rsession, shard, "prepare", sql=sql)
        self._forward(rsession, shard, "close_statement", stmt=info["stmt"])
        prepared = RouterStatement(
            sql=sql,
            statement=statement,
            kind=info["kind"],
            param_count=info["param_count"],
            columns=tuple(info["columns"]),
        )
        stmt_id = rsession.register_statement(prepared)
        return {
            "stmt": stmt_id,
            "kind": prepared.kind,
            "param_count": prepared.param_count,
            "columns": list(prepared.columns),
        }

    def _resolve_router_statement(
        self, rsession: RouterSession, params: dict[str, Any]
    ) -> RouterStatement:
        if "stmt" in params:
            prepared = rsession.statement(params["stmt"])
            if not isinstance(prepared, RouterStatement):
                raise BeliefDBError(
                    f"unknown prepared statement {params['stmt']!r}"
                )
            return prepared
        if "sql" in params:
            sql = _require(params, "sql")
            statement = parse_beliefsql(sql)
            kind = (
                "select" if isinstance(statement, SelectStatement)
                else type(statement).__name__[: -len("Statement")].lower()
            )
            return RouterStatement(
                sql=sql, statement=statement, kind=kind,
                param_count=0, columns=(),
            )
        raise BeliefDBError("execute_prepared needs 'stmt' or 'sql'")

    @staticmethod
    def _bind_params(params: dict[str, Any]) -> tuple[Any, ...]:
        bind = params.get("params", [])
        if not isinstance(bind, (list, tuple)):
            raise BeliefDBError("params must be a list")
        return tuple(bind)

    def _route_execute_prepared(
        self, rsession: RouterSession, params: dict[str, Any]
    ) -> Any:
        prepared = self._resolve_router_statement(rsession, params)
        bind = self._bind_params(params)
        max_rows = _page_size(params, "max_rows")
        if isinstance(prepared.statement, SelectStatement):
            return self._fanout_select(
                rsession, prepared.statement, prepared.sql, bind, max_rows
            )
        rewritten = rsession.rewrite(prepared.statement)
        shard = self._shard_for_statement(rsession, rewritten, bind)
        if rsession.in_txn:
            self._pin_txn(rsession, shard)
            return self._forward(
                rsession, shard, "execute_prepared",
                sql=str(rewritten), params=list(bind),
            )
        return self._forward(
            rsession, shard, "execute_prepared",
            sql=str(rewritten), params=list(bind), max_rows=max_rows,
        )

    def _fanout_select(
        self,
        rsession: RouterSession,
        statement: SelectStatement,
        sql: str,
        bind: tuple[Any, ...],
        max_rows: int,
    ) -> dict[str, Any]:
        """Route a select to the shards its worlds live on — one shard in
        the common case — gather+drain each one's pages (the worker cuts
        them under the frame ceiling), and re-page the merged rows through
        the session's cursor registry."""
        rows: list = []
        columns: list[str] | None = None
        elapsed_ms = 0.0
        shards = self._select_shards(rsession, statement, bind)
        for shard in shards:
            def gather(client: BeliefClient) -> tuple[dict[str, Any], list]:
                payload = client.execute_prepared(sql, list(bind))
                return payload, client.drain(payload)

            payload, shard_rows = self._forward_fn(
                rsession, shard, "execute_prepared", gather
            )
            if columns is None:
                columns = list(payload["columns"])
            elapsed_ms += payload["elapsed_ms"]
            rows.extend(shard_rows)
        self._fanout_hist.observe(float(len(shards)))
        return {
            "kind": "select",
            "columns": columns or [],
            "rowcount": len(rows),
            "status": f"SELECT {len(rows)}",
            "elapsed_ms": round(elapsed_ms, 3),
            **self._first_page(rsession, rows, max_rows),
        }

    def _route_execute_batch(
        self, rsession: RouterSession, params: dict[str, Any]
    ) -> Any:
        prepared = self._resolve_router_statement(rsession, params)
        if isinstance(prepared.statement, SelectStatement):
            raise BeliefDBError("execute_batch is for DML, not select")
        rows = _require(params, "param_rows")
        if not isinstance(rows, list) or not all(
            isinstance(row, (list, tuple)) for row in rows
        ):
            raise BeliefDBError("param_rows must be a list of lists")
        rewritten = rsession.rewrite(prepared.statement)
        groups: dict[int, list[list[Any]]] = {}
        for row in rows:
            shard = self._shard_for_statement(rsession, rewritten, tuple(row))
            groups.setdefault(shard, []).append(list(row))
        if not groups:
            # An empty batch still validates the statement server-side.
            groups = {self._shard_for_path(rsession, None): []}
        sql = str(rewritten)
        if rsession.in_txn:
            if len(groups) > 1:
                raise CrossShardTransactionError(
                    f"batch rows route to shards {sorted(groups)} but a "
                    "transaction is single-shard; split the batch or run "
                    "it outside the transaction — nothing was staged"
                )
            (shard, shard_rows), = groups.items()
            self._pin_txn(rsession, shard)
            return self._forward(
                rsession, shard, "execute_batch",
                sql=sql, param_rows=shard_rows,
            )
        payload: dict[str, Any] | None = None
        for shard in sorted(groups):
            payload = merge_batch_payload(payload, self._forward(
                rsession, shard, "execute_batch",
                sql=sql, param_rows=groups[shard],
            ))
        assert payload is not None
        return payload

    # --------------------------------------------------------- transactions

    def _pin_txn(self, rsession: RouterSession, shard: int) -> None:
        """First staged DML pins the transaction to its shard; a statement
        routing elsewhere is rejected typed and NOT staged — the open
        transaction survives untouched."""
        if rsession.txn_shard is None:
            self._forward(rsession, shard, "begin")
            rsession.txn_shard = shard
        elif rsession.txn_shard != shard:
            raise CrossShardTransactionError(
                f"this transaction is pinned to shard {rsession.txn_shard} "
                f"(where its first statement staged), but this statement "
                f"routes to shard {shard}; commit or rollback first — the "
                "statement was not staged"
            )

    def _route_begin(
        self, rsession: RouterSession, params: dict[str, Any]
    ) -> Any:
        if rsession.in_txn:
            raise TransactionError(
                "a transaction is already open on this session"
            )
        rsession.in_txn = True
        rsession.txn_shard = None
        return self._describe(rsession)

    def _route_commit(
        self, rsession: RouterSession, params: dict[str, Any]
    ) -> Any:
        if not rsession.in_txn:
            raise TransactionError(
                "no transaction is open — nothing to commit"
            )
        shard = rsession.txn_shard
        rsession.reset_txn()  # consumed whatever the outcome, like take_transaction
        if shard is None:
            # Empty transaction: run begin+commit on the session's home
            # shard so the reply is the worker's exact commit envelope.
            home = self._shard_for_path(rsession, None)
            self._forward(rsession, home, "begin")
            return self._forward(rsession, home, "commit")
        return self._forward(rsession, shard, "commit")

    def _route_rollback(
        self, rsession: RouterSession, params: dict[str, Any]
    ) -> Any:
        if not rsession.in_txn:
            raise TransactionError(
                "no transaction is open — nothing to roll back"
            )
        shard = rsession.txn_shard
        rsession.reset_txn()
        if shard is None:
            return {"discarded": 0}
        return self._forward(rsession, shard, "rollback")

    # ------------------------------------------------------- fan-out reads

    def _route_worlds(
        self, rsession: RouterSession, params: dict[str, Any]
    ) -> Any:
        # Each *user* world lives on exactly one shard, but every shard
        # carries its own (mostly empty) ε content world — merge by path,
        # summing statement counts (exact: non-owners contribute zeros).
        by_path: dict[tuple, dict[str, Any]] = {}
        for _, worlds in self._fanout(rsession, "worlds"):
            for world in worlds:
                key = tuple(world["path"])
                entry = by_path.get(key)
                if entry is None:
                    by_path[key] = dict(world)
                else:
                    entry["positives"] += world["positives"]
                    entry["negatives"] += world["negatives"]
        return [
            by_path[key]
            for key in sorted(by_path, key=lambda p: (len(p), repr(p)))
        ]

    # --------------------------------------------------------- observability

    def _route_stats(
        self, rsession: RouterSession, params: dict[str, Any]
    ) -> Any:
        """The fleet-wide stats aggregate: counters summed across shards,
        gauges maxed, plus per-shard sections and the router's own."""
        merged: dict[str, Any] = {}
        per_shard: dict[str, Any] = {}
        reached = 0
        for shard in range(self.ring.n_shards):
            try:
                payload = self._forward(rsession, shard, "stats")
            except ShardUnavailableError:
                per_shard[str(shard)] = {"unavailable": True}
                continue
            reached += 1
            per_shard[str(shard)] = payload.get("server", {})
            _merge_stats_tree(merged, payload)
        # Every shard carries its own ε content world; the fleet has one.
        worlds = merged.get("worlds")
        if isinstance(worlds, int) and reached > 1:
            merged["worlds"] = worlds - (reached - 1)
        annotations = merged.get("annotations", 0)
        if isinstance(annotations, int) and annotations > 0:
            merged["relative_overhead"] = round(
                merged.get("total_rows", 0) / annotations, 4
            )
        cache = merged.get("statement_cache")
        if isinstance(cache, dict):
            lookups = cache.get("hits", 0) + cache.get("misses", 0)
            cache["hit_rate"] = (
                cache.get("hits", 0) / lookups if lookups else 0.0
            )
        merged["shards"] = per_shard
        merged["shards_reached"] = reached
        merged["router"] = self._server_stats()
        return merged

    def _route_metrics(
        self, rsession: RouterSession, params: dict[str, Any]
    ) -> Any:
        """Every shard's metric families plus the router's own, each sample
        tagged with a ``shard`` label (``"router"`` for local families)."""
        families: dict[str, dict[str, Any]] = {}

        def fold(snapshot: list[dict[str, Any]], shard_label: str) -> None:
            for family in snapshot:
                entry = families.get(family["name"])
                if entry is None:
                    names = list(family["label_names"])
                    if "shard" not in names:
                        names.append("shard")
                    entry = {
                        "name": family["name"],
                        "type": family["type"],
                        "help": family["help"],
                        "label_names": names,
                        "samples": [],
                    }
                    families[family["name"]] = entry
                for sample in family["samples"]:
                    tagged = dict(sample)
                    # Families already shard-labelled (the coordinator's
                    # health gauges, router forward latency) keep theirs.
                    if "shard" not in sample["labels"]:
                        tagged["labels"] = {
                            **sample["labels"], "shard": shard_label,
                        }
                    entry["samples"].append(tagged)

        fold(self.metrics.snapshot(), "router")
        for shard in self.coordinator.directory.healthy_shards():
            try:
                payload = self._forward(rsession, shard, "metrics")
            except (ShardUnavailableError, BeliefDBError):
                continue
            fold(payload.get("families", []), str(shard))
        return {
            "families": list(families.values()),
            "slow_ops": self.slow_ops.snapshot(),
        }

    # --------------------------------------------------- lifecycle & audit

    def _route_lifecycle(
        self, rsession: RouterSession, params: dict[str, Any]
    ) -> Any:
        """Curation writes route like DML: by the belief-world head.

        ``propose`` carries its statement's path; ``transition`` routes by
        an explicit ``path`` param or the session default (belief ids are
        content hashes — the router cannot invert them, so a transition
        addressed from outside the owning session must say which world the
        belief lives in; the worker ignores the path). ``decay_sweep`` fans
        out: every shard sweeps its own records, each stamping its own WAL.
        """
        action = _require(params, "action")
        # Workers hold no session for router upstreams, so attribution is
        # forwarded explicitly: an explicit actor wins, else the curator
        # logged into *this* router session.
        actor = params.get("actor")
        if actor is None:
            actor = rsession.user
        if action == "decay_sweep":
            swept = 0
            changed = 0
            for _, result in self._fanout(
                rsession, "lifecycle", action="decay_sweep", actor=actor
            ):
                swept += result["swept"]
                changed += result["changed"]
            return {"swept": swept, "changed": changed}
        return self._forward_by_path(
            rsession, "lifecycle", {**params, "actor": actor}
        )

    def _route_audit(
        self, rsession: RouterSession, params: dict[str, Any]
    ) -> Any:
        """Lifecycle reads. A ``queue`` listing with a path goes to the
        owning shard; the rest scatter — the log merges by timestamp, and
        record/provenance lookups return the one shard's answer that has
        the belief (each id lives on exactly one shard)."""
        kind = params.get("kind", "log")
        if kind == "queue":
            if params.get("path") is not None:
                return self._forward_by_path(rsession, "audit", params)
            merged: list = []
            for _, views in self._fanout(rsession, "audit", **params):
                merged.extend(views)
            merged.sort(key=lambda v: (v["created_ts"], v["belief"]))
            limit = params.get("limit")
            return merged[:limit] if limit else merged
        if kind == "log":
            events: list = []
            for _, shard_events in self._fanout(rsession, "audit", **params):
                events.extend(shard_events)
            events.sort(key=lambda e: (e["ts"], e["seq"]))
            limit = params.get("limit")
            return events[-limit:] if limit else events
        if kind in ("record", "provenance"):
            last_error: LifecycleError | None = None
            for shard in range(self.ring.n_shards):
                try:
                    result = self._forward(rsession, shard, "audit", **params)
                except LifecycleError as exc:
                    last_error = exc  # not on this shard; keep looking
                    continue
                if result is not None:
                    return result
            if last_error is not None:
                raise last_error
            return None
        raise BeliefDBError(
            f"unknown audit kind {kind!r}; expected log, record, "
            "queue, or provenance"
        )

    def _op_shard_status(
        self, session: ClientSession, params: dict[str, Any]
    ) -> Any:
        status = self.coordinator.status()
        status["ring"] = {
            "n_shards": self.ring.n_shards,
            "vnodes": self.ring.vnodes,
        }
        with self._state_lock:
            sessions = self.stats["connections_active"]
            ops = self.stats["ops_served"]
        status["router"] = {
            "address": list(self.address) if self.address else None,
            "sessions_active": sessions,
            "ops_served": ops,
        }
        return status


#: Keys merged with max() instead of sum() across shard stats payloads
#: (point-in-time gauges, latency quantiles, and fleet-replicated counts
#: like the user table, where summing lies).
_STATS_MAX_KEYS = frozenset({
    "uptime_seconds", "p50_ms", "p99_ms", "capacity", "size", "users",
})

#: Keys where the first shard's value stands for the fleet (config echoes).
_STATS_FIRST_KEYS = frozenset({
    "backend", "eager", "strict", "max_sessions", "max_inflight_requests",
})


def _merge_stats_tree(into: dict[str, Any], payload: dict[str, Any]) -> None:
    """Fold one shard's stats payload into the running aggregate: dicts
    recurse, numbers sum (or max for gauge-like keys), everything else
    keeps the first shard's value."""
    for key, value in payload.items():
        if key not in into:
            into[key] = dict(value) if isinstance(value, dict) else value
            if isinstance(value, dict):
                merged_child: dict[str, Any] = {}
                _merge_stats_tree(merged_child, value)
                into[key] = merged_child
            continue
        current = into[key]
        if isinstance(value, dict) and isinstance(current, dict):
            _merge_stats_tree(current, value)
        elif key in _STATS_FIRST_KEYS:
            continue
        elif (
            isinstance(value, (int, float)) and not isinstance(value, bool)
            and isinstance(current, (int, float))
            and not isinstance(current, bool)
        ):
            if key in _STATS_MAX_KEYS:
                into[key] = max(current, value)
            else:
                into[key] = current + value
        # else: keep the first value (strings, bools, lists)
