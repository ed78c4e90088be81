"""Transactional sessions: stage DML, commit atomically.

A :class:`Transaction` is a *per-session write buffer* (the model of
annotated revision programs: one curation step = one atomic revision of
the belief set). DML executed while a transaction is open is **staged**,
not applied: the statement is prepared through the normal LRU cache and
its parameters are bound eagerly — wrong arity, unsupported value types,
and select-where-DML-belongs all fail *at stage time* — but the belief
store is untouched, so concurrent readers keep seeing the pre-transaction
state.

:meth:`BeliefDBMS.commit_transaction` then applies every staged statement
in order as one atomic unit: under the server's single write-lock
acquisition (readers never observe a partial transaction), with **one**
WAL append and one fsync for the whole commit
(:meth:`~repro.durability.manager.DurabilityManager.log_transaction` —
begin/commit framing, so recovery after ``kill -9`` mid-commit discards
the uncommitted tail rather than replaying half a transaction). If any
statement is rejected mid-apply, the already-applied prefix is rolled
back — the store is rebuilt from the explicit annotations captured at
commit start, the same deterministic rebuild recovery uses — and
:class:`~repro.errors.TransactionAbortedError` is raised; nothing reaches
the WAL.

Reads inside an open transaction go **through the write buffer**: the
session that staged a write sees it in its own selects
(read-your-own-writes), while every other session keeps seeing the last
committed state until the commit lands. This is uniform across the
embedded and remote deployment shapes. Mechanically, :meth:`read_version`
replays the staged statements onto a private copy-on-write fork of the
current pinned snapshot (see :mod:`repro.bdms.dml`); a table the replay
writes to leaves the live table's lineage and indexes itself privately
(:mod:`repro.relational.table`), so staged rows never show in the index
buckets other readers probe. The view is cached and rebuilt only when
the buffer — or the committed epoch underneath it — changes.

A Transaction object is not internally synchronized; its owner (an
:class:`~repro.api.connection.Connection` or a server
:class:`~repro.server.session.ClientSession`) serializes access.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Sequence

from repro.bdms.dml import apply_compiled
from repro.bdms.result import Result
from repro.core.schema import Value
from repro.errors import TransactionError
from repro.storage.mvcc import Version

if TYPE_CHECKING:  # pragma: no cover — type-only import (avoids a cycle)
    from repro.bdms.bdms import BeliefDBMS, PreparedStatement


class StagedStatement:
    """One staged DML statement: a prepared handle plus its bound rows."""

    __slots__ = ("prepared", "param_rows")

    def __init__(
        self,
        prepared: "PreparedStatement",
        param_rows: Sequence[Sequence[Value]],
    ) -> None:
        self.prepared = prepared
        self.param_rows: list[tuple[Value, ...]] = [
            tuple(row) for row in param_rows
        ]


class Transaction:
    """A per-session write buffer awaiting an atomic commit.

    Obtained from :meth:`BeliefDBMS.begin_transaction`; populated with
    :meth:`stage` / :meth:`stage_batch`; consumed exactly once by
    :meth:`BeliefDBMS.commit_transaction` or :meth:`discard`.
    """

    def __init__(self, db: "BeliefDBMS") -> None:
        self.db = db
        self._staged: list[StagedStatement] = []
        self._state = "open"
        #: Cached read view (committed snapshot + staged writes) and the
        #: (epoch, statements, rows) key it was built for.
        self._view: Version | None = None
        self._view_key: tuple[int, int, int] | None = None

    # ---------------------------------------------------------------- state

    @property
    def open(self) -> bool:
        return self._state == "open"

    @property
    def state(self) -> str:
        """``"open"``, ``"committed"``, ``"rolled back"``, ``"aborted"``
        (rejected mid-apply and rolled back), or ``"failed"`` (applied in
        memory but the WAL append failed — durability unknown, manager
        fail-stopped)."""
        return self._state

    @property
    def statement_count(self) -> int:
        """Staged statements (an ``executemany`` batch counts once)."""
        return len(self._staged)

    @property
    def row_count(self) -> int:
        """Total staged parameter rows across all statements."""
        return sum(len(s.param_rows) for s in self._staged)

    def _check_open(self) -> None:
        if self._state != "open":
            raise TransactionError(f"transaction is {self._state}, not open")

    # -------------------------------------------------------------- staging

    def stage(
        self, prepared: "PreparedStatement", params: Sequence[Value] = ()
    ) -> Result:
        """Buffer one DML execution; validate eagerly, apply nothing.

        Returns the uniform *staged* Result: ``rowcount`` is ``-1``
        (unknowable before commit) and ``status`` carries the ``STAGED``
        tag, identically embedded and remote.
        """
        return self._stage(prepared, [params])

    def stage_batch(
        self,
        prepared: "PreparedStatement",
        param_rows: Sequence[Sequence[Value]],
    ) -> Result:
        """Buffer an ``executemany`` batch as one staged statement."""
        return self._stage(prepared, param_rows)

    def _stage(
        self,
        prepared: "PreparedStatement",
        param_rows: Sequence[Sequence[Value]],
    ) -> Result:
        start = time.perf_counter()
        self._check_open()
        if prepared.kind == "select":
            raise TransactionError(
                "only DML can be staged in a transaction; selects execute "
                "immediately against the session's read view"
            )
        rows = [tuple(row) for row in param_rows]
        # Eager validation: arity and value types fail here, at stage time,
        # not at commit. bind() is pure — the store is untouched.
        for row in rows:
            prepared.compiled.bind(row)
        self._staged.append(StagedStatement(prepared, rows))
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        return Result(
            kind=prepared.kind,
            rows=[],
            columns=(),
            rowcount=-1,
            status=f"{prepared.kind.upper()} STAGED",
            elapsed_ms=elapsed_ms,
        )

    # ------------------------------------------------------------- read view

    def read_version(self) -> Version:
        """This session's read view: committed snapshot + staged writes.

        Pins the current version, forks it copy-on-write, and replays the
        staged statements (non-strict — exactly the commit-time apply
        semantics, see :mod:`repro.bdms.dml`) onto the private fork. The
        result is wrapped in a :class:`~repro.storage.mvcc.Version` so the
        normal query path — including the per-version sqlite mirror —
        serves it unchanged. Cached until the buffer or the committed
        epoch underneath it changes; never registered with the version
        manager (no other session can pin it).
        """
        self._check_open()
        key = (self.db.versions.epoch, self.statement_count, self.row_count)
        if self._view is not None and self._view_key == key:
            return self._view
        self._drop_view()
        with self.db.read_view() as pinned:
            store = pinned.store.fork_snapshot()
            epoch = pinned.epoch
        for staged in self._staged:
            for row in staged.param_rows:
                apply_compiled(store, staged.prepared.compiled, row)
        self._view = Version(epoch, store)
        self._view_key = key
        return self._view

    def _drop_view(self) -> None:
        if self._view is not None:
            self._view.close()
            self._view = None
            self._view_key = None

    # ------------------------------------------------------------- lifecycle

    def statements(self) -> list[StagedStatement]:
        return list(self._staged)

    def discard(self) -> int:
        """Roll the transaction back: drop every staged statement.

        Nothing was applied, so this is pure bookkeeping; returns how many
        staged statements were discarded.
        """
        self._check_open()
        dropped = len(self._staged)
        self._staged.clear()
        self._drop_view()
        self._state = "rolled back"
        self.db._note_txn("rolled_back")
        return dropped

    def _mark(self, state: str) -> None:
        """Internal: commit_transaction records the terminal state here."""
        self._state = state
        self._drop_view()

    def __repr__(self) -> str:
        return (
            f"<Transaction {self._state}: {self.statement_count} statements, "
            f"{self.row_count} rows>"
        )
