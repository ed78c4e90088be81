"""Per-connection session state.

Each connection to a :class:`~repro.server.server.BeliefServer` carries a
:class:`ClientSession`: the authenticated user (if any) and a *default belief
path*. After ``login``, the default path is ``(uid,)`` — the user's own belief
world — so a plain ``insert into Sightings ...`` from that connection is
implicitly annotated as that user's belief, matching the paper's model in
which "each user sees their own belief world". An explicit ``BELIEF ...``
prefix always wins over the default.

The session only *rewrites* statements; all enforcement (path validity,
consistency, Alg. 4 accept/reject) stays in the store. The shard router
keeps the same session (a subclass that adds its upstream connections), so
this rewrite is the one place a default path is applied on any endpoint.

Sessions also hold the connection's server-side *prepared statements*
(``prepare`` op) and open *result cursors* (rows of a large select awaiting
``fetch`` paging; every page, the first included, is cut by row count and
by estimated wire bytes — :func:`page_slice` — so no page can outgrow the
frame ceiling however wide its rows are). The shard router pages its merged
fan-out results through the same registry. Both registries are bounded —
statements evict least-recently-*used*, cursors oldest-first — so a client
hoarding handles cannot grow server memory. Under the threaded server they
are only ever touched by the connection's own handler thread; the pipelined
async server executes one connection's in-flight requests concurrently in a
thread pool, so every registry/state mutation here takes a small internal
lock.

Finally, the session owns the connection's **open transaction** (``begin``
/ ``commit`` / ``rollback`` ops): a :class:`~repro.bdms.transaction
.Transaction` write buffer that in-transaction DML stages into. Both
server cores share this state identically — the per-session transaction is
what makes ``commit`` atomic from every other session's point of view. An
open transaction dies (is discarded, never applied) with its connection.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from collections.abc import Hashable
from typing import Any, Sequence

from repro.beliefsql.ast import (
    BeliefSpec,
    DeleteStatement,
    InsertStatement,
    Literal,
    Statement,
    UpdateStatement,
)
from repro.bdms.transaction import Transaction
from repro.core.paths import User, validate_path
from repro.errors import BeliefDBError, TransactionError
from repro.server.protocol import estimated_row_bytes


#: Bounds on per-connection handle registries (oldest evicted beyond these).
MAX_STATEMENTS = 256
MAX_CURSORS = 32


def page_slice(
    rows: list, offset: int, max_rows: int, byte_budget: int
) -> tuple[list, int]:
    """``rows[offset:...]`` capped by row count and estimated wire bytes;
    returns the page and the offset after it. Always at least one row, so
    paging can never stall — which is also why a page that can hold only
    one row is cut without estimating anything."""
    stop = min(len(rows), offset + max_rows)
    if stop - offset <= 1:
        return rows[offset:stop], stop
    end = offset
    total = 0
    while end < stop:
        total += estimated_row_bytes(rows[end])
        if total > byte_budget and end > offset:
            break
        end += 1
    return rows[offset:end], end


class ClientSession:
    """Who is on the other end of one connection, and their default world."""

    def __init__(self, peer: str = "?") -> None:
        self.peer = peer
        self.user: User | None = None
        self.user_name: str | None = None
        self.default_path: tuple[User, ...] = ()
        # Guards the registries and session identity against concurrent
        # pipelined requests (the async server dispatches one connection's
        # in-flight requests across executor threads).
        self._mutex = threading.RLock()
        self._statements: OrderedDict[int, Any] = OrderedDict()
        self._statement_seq = 0
        #: cursor id -> (row list, offset of the next unsent row). The list
        #: is never copied; paging advances the offset (O(page) per fetch).
        self._cursors: OrderedDict[int, tuple[list, int]] = OrderedDict()
        self._cursor_seq = 0
        #: The open transaction (None outside begin..commit/rollback).
        self._txn: Transaction | None = None

    # ------------------------------------------------------------ lifecycle

    def login(self, uid: User, name: str) -> None:
        """Authenticate; the default path becomes the user's own world."""
        with self._mutex:
            self.user = uid
            self.user_name = name
            self.default_path = (uid,)

    def logout(self) -> None:
        with self._mutex:
            self.user = None
            self.user_name = None
            self.default_path = ()

    def set_path(self, path: Sequence[User]) -> None:
        """Override the default belief path (``()`` = plain content);
        a path with adjacent repeated users raises :class:`InvalidBeliefPath`."""
        validate_path(path)
        with self._mutex:
            self.default_path = tuple(path)

    # ------------------------------------------------------------ rewriting

    def effective_path(self, path: Sequence[Any] | None) -> tuple[Any, ...]:
        """Resolve a programmatic path argument: None means "my world"."""
        if path is None:
            return self.default_path
        if not isinstance(path, (list, tuple)) or not all(
            isinstance(user, Hashable) for user in path
        ):
            raise BeliefDBError("path must be a list of users (or null)")
        return tuple(path)

    def rewrite(self, statement: Statement) -> Statement:
        """Prepend the default path to DML statements with no BELIEF prefix.

        Selects are never rewritten: reading plain content is always allowed,
        and the textual form stays the single source of truth for what a
        query means regardless of who runs it.
        """
        if not self.default_path:
            return statement
        if not isinstance(
            statement, (InsertStatement, DeleteStatement, UpdateStatement)
        ):
            return statement
        if statement.belief.path:
            return statement
        spec = BeliefSpec(
            path=tuple(Literal(uid) for uid in self.default_path),
            negated=statement.belief.negated,
        )
        return dataclasses.replace(statement, belief=spec)

    # ----------------------------------------------------------- transactions

    @property
    def in_transaction(self) -> bool:
        with self._mutex:
            return self._txn is not None

    def begin_transaction(self, txn: Transaction) -> None:
        """Adopt a fresh write buffer; one open transaction per session."""
        with self._mutex:
            if self._txn is not None:
                raise TransactionError(
                    "a transaction is already open on this session"
                )
            self._txn = txn

    def transaction(self) -> Transaction:
        """The open transaction (for staging); raises when none is open."""
        with self._mutex:
            if self._txn is None:
                raise TransactionError("no transaction is open")
            return self._txn

    def take_transaction(self) -> Transaction:
        """Detach the open transaction for commit; the session forgets it
        whatever the commit's outcome."""
        with self._mutex:
            if self._txn is None:
                raise TransactionError(
                    "no transaction is open — nothing to commit"
                )
            txn, self._txn = self._txn, None
            return txn

    def rollback_transaction(self) -> int:
        """Discard the open transaction; staged statements dropped."""
        with self._mutex:
            if self._txn is None:
                raise TransactionError(
                    "no transaction is open — nothing to roll back"
                )
            txn, self._txn = self._txn, None
        return txn.discard()

    def abandon_transaction(self) -> bool:
        """Discard an open transaction without error (connection teardown).

        Both server cores call this when a connection dies, so a
        transaction left open by a vanished client still reaches a
        terminal state and the begun/committed/rolled-back ledger in
        ``snapshot_stats`` reconciles.
        """
        with self._mutex:
            txn, self._txn = self._txn, None
        if txn is not None and txn.open:
            txn.discard()
            return True
        return False

    # --------------------------------------------------- prepared statements

    def register_statement(self, prepared: Any) -> int:
        """Store a prepared statement; returns its per-connection handle."""
        with self._mutex:
            self._statement_seq += 1
            self._statements[self._statement_seq] = prepared
            while len(self._statements) > MAX_STATEMENTS:
                self._statements.popitem(last=False)
            return self._statement_seq

    def statement(self, stmt_id: Any) -> Any:
        with self._mutex:
            prepared = self._statements.get(stmt_id)
            if prepared is None:
                raise BeliefDBError(f"unknown prepared statement {stmt_id!r}")
            # Refresh recency so the capacity bound evicts idle handles, not
            # the ones a long-lived connection executes constantly.
            self._statements.move_to_end(stmt_id)
            return prepared

    def close_statement(self, stmt_id: Any) -> bool:
        with self._mutex:
            return self._statements.pop(stmt_id, None) is not None

    # ----------------------------------------------------------- row cursors

    def open_cursor(
        self, rows: list, max_rows: int, byte_budget: int
    ) -> tuple[list, int | None]:
        """The first page of a result, and a cursor id for the unsent tail
        parked for ``fetch`` paging (None when the page was everything)."""
        page, end = page_slice(rows, 0, max_rows, byte_budget)
        if end >= len(rows):
            return page, None
        with self._mutex:
            self._cursor_seq += 1
            self._cursors[self._cursor_seq] = (rows, end)
            while len(self._cursors) > MAX_CURSORS:
                self._cursors.popitem(last=False)
            return page, self._cursor_seq

    def fetch_rows(
        self, cursor_id: Any, count: int, byte_budget: int
    ) -> tuple[list, bool]:
        """The next page and whether more remain (auto-closes at end)."""
        with self._mutex:
            entry = self._cursors.get(cursor_id)
            if entry is None:
                raise BeliefDBError(f"unknown cursor {cursor_id!r}")
            rows, offset = entry
            batch, end = page_slice(rows, offset, count, byte_budget)
            if end < len(rows):
                self._cursors[cursor_id] = (rows, end)
                return batch, True
            del self._cursors[cursor_id]
            return batch, False

    def close_cursor(self, cursor_id: Any) -> bool:
        with self._mutex:
            return self._cursors.pop(cursor_id, None) is not None

    # ---------------------------------------------------------------- views

    def describe(self) -> dict[str, Any]:
        with self._mutex:
            txn = self._txn
            return {
                "peer": self.peer,
                "user": self.user,
                "user_name": self.user_name,
                "default_path": list(self.default_path),
                "statements": len(self._statements),
                "cursors": len(self._cursors),
                "transaction": (
                    None if txn is None else {
                        "statements": txn.statement_count,
                        "rows": txn.row_count,
                    }
                ),
            }

    def __repr__(self) -> str:
        who = self.user_name if self.user is not None else "<anonymous>"
        return f"<ClientSession {who} @ {self.peer} path={self.default_path!r}>"
