"""The belief store: stateful owner of the internal representation (Sect. 5).

A :class:`BeliefStore` owns the relational engine holding the internal schema
(``star_Ri``, ``v_Ri``, ``U``, ``E``, ``D``, ``S``), plus in-memory registries
(world ids, user ids, tuple ids, the inverted suffix tree) that the update
algorithms of Sect. 5.3 need. The actual algorithms — ``idWorld`` (Alg. 2),
``dss`` (Alg. 3), ``insertTuple`` (Alg. 4), deletes — live in
:mod:`repro.storage.updates` and operate on a store.

Two materialization modes (Sect. 6.3):

* ``eager`` (the paper's default): the valuation tables hold the *entailed*
  worlds — every implicit belief is materialized with ``e='n'``. Queries
  translate straight to joins over ``V`` (Algorithm 1).
* ``lazy`` (the paper's future-work alternative): only explicit annotations
  are stored; the default rule is applied at query time
  (:mod:`repro.query.lazy`). The database stays small, queries do more work.

The explicit statements (the paper's ``D``) are V's ``e='y'`` rows and
nothing else: the store keeps only their count. :meth:`explicit_signs` reads
one world's through V's ``(wid)`` index, and :meth:`to_belief_database`
builds a core :class:`~repro.core.database.BeliefDatabase` from all of them
for the Def. 14 evaluator, the Kripke structure and rebuilds.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterator

from repro.core.closure import entailed_world as core_entailed_world
from repro.core.database import BeliefDatabase
from repro.core.paths import (
    ROOT_PATH,
    BeliefPath,
    User,
    can_extend,
    validate_path,
)
from repro.core.schema import ExternalSchema, GroundTuple, Value
from repro.core.statements import NEGATIVE, POSITIVE, BeliefStatement, Sign
from repro.core.worlds import BeliefWorld
from repro.errors import (
    SchemaError,
    UnknownUserError,
    UnknownWorldError,
)
from repro.lifecycle.registry import LifecycleRegistry
from repro.relational.database import RelationalDatabase
from repro.relational.table import Row, Table
from repro.storage.internal_schema import (
    D_TABLE,
    DERIVES_TABLE,
    E_TABLE,
    EXPLICIT_YES,
    LIFECYCLE_TABLE,
    LIFECYCLE_TABLES,
    ROOT_WID,
    S_TABLE,
    SIGN_NEG,
    SIGN_POS,
    U_TABLE,
    create_internal_tables,
    create_lifecycle_tables,
    star_table_name,
    v_table_name,
)


#: The world and user registries, each with the one-level-deep copy its
#: owner makes before changing it while a fork still holds it.
_FORKED_REGISTRIES = {
    "_wid_by_path": dict,
    "_path_by_wid": dict,
    "_depth": dict,
    "_s_parent": dict,
    "_s_children": lambda held: defaultdict(
        set, {wid: set(children) for wid, children in held.items()}
    ),
    "_edges": lambda held: {wid: dict(per) for wid, per in held.items()},
    "_users": dict,
    "_uid_by_name": dict,
}


def sign_to_str(sign: Sign) -> str:
    return SIGN_POS if sign is POSITIVE else SIGN_NEG


def str_to_sign(s: str) -> Sign:
    return POSITIVE if s == SIGN_POS else NEGATIVE


class BeliefStore:
    """Stateful internal representation of one belief database."""

    def __init__(
        self,
        schema: ExternalSchema,
        eager: bool = True,
        auto_index: bool = True,
    ) -> None:
        self.schema = schema
        self.eager = eager
        self.engine = RelationalDatabase(auto_index=auto_index)
        create_internal_tables(self.engine, schema)
        create_lifecycle_tables(self.engine)

        #: The explicit statements held: V's ``e='y'`` rows (the paper's n).
        self.explicit_count = 0

        # World registry (mirrors D and S, plus the path mapping that the
        # relational representation keeps implicit in E).
        self._wid_by_path: dict[BeliefPath, int] = {ROOT_PATH: ROOT_WID}
        self._path_by_wid: dict[int, BeliefPath] = {ROOT_WID: ROOT_PATH}
        self._depth: dict[int, int] = {ROOT_WID: 0}
        self._s_parent: dict[int, int] = {}
        self._s_children: dict[int, set[int]] = defaultdict(set)
        self._next_wid = 1
        self.engine.table(D_TABLE).insert((ROOT_WID, 0))

        # Edge registry mirroring E: wid -> {uid -> wid}.
        self._edges: dict[int, dict[User, int]] = {ROOT_WID: {}}

        # User registry mirroring U.
        self._users: dict[User, str] = {}
        self._uid_by_name: dict[str, User] = {}
        self._next_uid = 1

        #: True while a fork may share the registries above.
        self._shared = False

        #: While :meth:`explicit_journal` runs: each explicit statement whose
        #: membership changed, mapped to whether it was there at the start.
        self._journal: dict[BeliefStatement, bool] | None = None

        # Tuple registry mirroring the star tables. Append-only, and shared
        # with every fork: a store sees only the tids below its _next_tid,
        # and only their owner (the store that made them) appends to them.
        self._tid_by_tuple: dict[GroundTuple, int] = {}
        self._tuple_by_tid: dict[int, GroundTuple] = {}
        self._next_tid = 1
        self._owns_tuples = True

        self.lifecycle = LifecycleRegistry()

    @property
    def lifecycle(self) -> LifecycleRegistry:
        """Lifecycle records + audit log for the explicit statements
        (:mod:`repro.lifecycle`); mutated only via the BDMS write path."""
        return self._lifecycle

    @lifecycle.setter
    def lifecycle(self, registry: LifecycleRegistry) -> None:
        """Adopt ``registry``: the lifecycle relations are rebuilt from it,
        with this store's world and tuple ids."""
        registry.bind(self)
        self._lifecycle = registry

    def lifecycle_relations(self) -> tuple[Table, Table]:
        """The ``lifecycle`` and ``derives`` tables (written by the registry)."""
        return self.engine.table(LIFECYCLE_TABLE), self.engine.table(DERIVES_TABLE)

    def statement_slot(self, key: tuple) -> tuple[int, int] | None:
        """``(wid, tid)`` of the statement a lifecycle key names — its
        ``(path, relation, values, sign)`` — if both ids exist here."""
        wid = self._wid_by_path.get(key[0])
        tid = self._tid(GroundTuple(key[1], key[2]))
        return None if wid is None or tid is None else (wid, tid)

    # ------------------------------------------------------------- snapshots

    def fork_snapshot(self) -> "BeliefStore":
        """An immutable-by-convention copy-on-write fork of the whole store.

        Nothing is copied: O(tables). The engine tables (the lifecycle
        relations among them, and V, whose ``e='y'`` rows are the explicit
        statements), the lifecycle registry and the world and user
        registries are shared, and the side that
        changes one first copies it only while the other still holds it
        (the table layer's rule, :meth:`repro.relational.table.Table.
        _materialize`). So a write no fork is watching costs its delta, and
        one that creates a world or a user under a pinned fork pays one
        copy of those registries. The tuple registries are append-only and
        shared outright: the fork ignores every tid at or above its
        ``_next_tid``. The result is a fully functional :class:`BeliefStore`,
        so every query backend evaluates against it unchanged; the MVCC
        layer (:mod:`repro.storage.mvcc`) hands these out as pinned
        versions and mutates only the live store.
        """
        fork = BeliefStore.__new__(BeliefStore)
        fork.schema = self.schema
        fork.eager = self.eager
        fork.engine = self.engine.snapshot_fork()
        fork.explicit_count = self.explicit_count
        for name in _FORKED_REGISTRIES:
            setattr(fork, name, getattr(self, name))
        fork._shared = self._shared = True
        fork._next_wid = self._next_wid
        fork._next_uid = self._next_uid
        fork._tid_by_tuple = self._tid_by_tuple
        fork._tuple_by_tid = self._tuple_by_tid
        fork._next_tid = self._next_tid
        fork._owns_tuples = False
        fork._journal = None
        fork._lifecycle = self._lifecycle.fork(fork)
        return fork

    def _own(self) -> None:
        """Before changing a world or user registry: copy each one a fork
        still holds. Pins take the write mutex, so no fork appears during a
        write and the count is exact there."""
        if not self._shared:
            return
        self._shared = False
        for name, copy in _FORKED_REGISTRIES.items():
            held = getattr(self, name)
            # Ours are three: the attribute, ``held`` and the call's argument.
            if sys.getrefcount(held) > 3:
                setattr(self, name, copy(held))

    def _own_tuples(self) -> None:
        """Before anything but the owner's append to the tuple registries:
        keep them only if nothing else holds them, else copy the tids below
        ``_next_tid`` (the owner may append meanwhile: ``dict()`` copies in
        one step)."""
        if (
            self._owns_tuples
            and sys.getrefcount(self._tuple_by_tid) == 2
            and sys.getrefcount(self._tid_by_tuple) == 2
        ):
            return
        limit = self._next_tid
        by_tid = {
            tid: t for tid, t in dict(self._tuple_by_tid).items() if tid < limit
        }
        self._tuple_by_tid = by_tid
        self._tid_by_tuple = {t: tid for tid, t in by_tid.items()}
        self._owns_tuples = True

    # ------------------------------------------------------------------ users

    def add_user(self, name: str | None = None, uid: User | None = None) -> User:
        """Register a user: a ``U`` row plus Kripke edges from every world.

        For a fresh user every edge targets the deepest suffix state of
        ``path·uid``, which is the root — the "new user Dora" rule of
        Sect. 3.2/5.3. Returns the user id (auto-assigned int when omitted).
        """
        if uid is None:
            uid = self._next_uid
            while uid in self._users:
                uid += 1
        if uid in self._users:
            raise SchemaError(f"user id {uid!r} already registered")
        self._next_uid = (uid + 1) if isinstance(uid, int) else self._next_uid
        display = name if name is not None else str(uid)
        if display in self._uid_by_name:
            raise SchemaError(f"user name {display!r} already registered")
        self._own()
        self._users[uid] = display
        self._uid_by_name[display] = uid
        self.engine.table(U_TABLE).insert((uid, display))
        edge_table = self.engine.table(E_TABLE)
        for wid, path in self._path_by_wid.items():
            if can_extend(path, uid):
                target = self.wid_of_dss(path + (uid,))
                edge_table.insert((wid, uid, target))
                self._edges[wid][uid] = target
        return uid

    def users(self) -> dict[User, str]:
        return dict(self._users)

    def uid_for_name(self, name: str) -> User:
        try:
            return self._uid_by_name[name]
        except KeyError:
            raise UnknownUserError(f"no user named {name!r}") from None

    def user_name(self, uid: User) -> str:
        try:
            return self._users[uid]
        except KeyError:
            raise UnknownUserError(f"no user with id {uid!r}") from None

    def has_user(self, uid: User) -> bool:
        return uid in self._users

    def resolve_user(self, ref: Value) -> User:
        """Resolve a user reference that may be a uid or a display name."""
        if ref in self._users:
            return ref
        if isinstance(ref, str) and ref in self._uid_by_name:
            return self._uid_by_name[ref]
        raise UnknownUserError(f"unknown user reference {ref!r}")

    def _check_path_users(self, path: BeliefPath) -> None:
        for uid in path:
            if uid not in self._users:
                raise UnknownUserError(
                    f"belief path mentions unregistered user {uid!r}"
                )

    # ------------------------------------------------------------------ worlds

    def wid_for_path(self, path: BeliefPath) -> int | None:
        return self._wid_by_path.get(path)

    def path_for_wid(self, wid: int) -> BeliefPath:
        try:
            return self._path_by_wid[wid]
        except KeyError:
            raise UnknownWorldError(f"unknown world id {wid}") from None

    def depth_of(self, wid: int) -> int:
        return self._depth[wid]

    def world_count(self) -> int:
        return len(self._path_by_wid)

    def states(self) -> frozenset[BeliefPath]:
        return frozenset(self._wid_by_path)

    def wid_of_dss(self, path: BeliefPath) -> int:
        """World id of the deepest suffix state of ``path`` (registry walk).

        The relational formulation of the same computation (Alg. 3) is in
        :func:`repro.storage.updates.dss_relational`; tests assert agreement.
        """
        for i in range(len(path) + 1):
            wid = self._wid_by_path.get(path[i:])
            if wid is not None:
                return wid
        raise UnknownWorldError("root world missing — corrupted store")

    def s_parent(self, wid: int) -> int | None:
        """The world's deepest-suffix-state backlink (``S``), None for root."""
        return self._s_parent.get(wid)

    def s_children(self, wid: int) -> frozenset[int]:
        return frozenset(self._s_children.get(wid, ()))

    def dependents_by_depth(self, wid: int) -> list[int]:
        """All worlds whose path has this world's path as proper suffix.

        These are exactly the transitive children in the inverted suffix tree
        (the ``S``-tree), returned shallowest-first so that propagation can
        assume parents are up to date (Alg. 4's "in ascending order of r").
        """
        found: list[int] = []
        frontier = list(self._s_children.get(wid, ()))
        while frontier:
            found.extend(frontier)
            frontier = [
                child for parent in frontier
                for child in self._s_children.get(parent, ())
            ]
        found.sort(key=self._depth.__getitem__)
        return found

    def register_world(self, path: BeliefPath, s_parent_wid: int) -> int:
        """Create registry + D/S rows for a new world. Used by ``idWorld``."""
        self._own()
        wid = self._next_wid
        self._next_wid += 1
        self._wid_by_path[path] = wid
        self._path_by_wid[wid] = path
        self._depth[wid] = len(path)
        self.engine.table(D_TABLE).insert((wid, len(path)))
        self.engine.table(S_TABLE).insert((wid, s_parent_wid))
        self._s_parent[wid] = s_parent_wid
        self._s_children[s_parent_wid].add(wid)
        self._edges[wid] = {}
        return wid

    def repoint_s_parent(self, wid: int, new_parent: int) -> None:
        """Move ``wid`` under a new parent in the S-tree (world creation)."""
        old = self._s_parent.get(wid)
        if old == new_parent:
            return
        self._own()
        if old is not None:
            self._s_children[old].discard(wid)
        self._s_parent[wid] = new_parent
        self._s_children[new_parent].add(wid)
        s = self.engine.table(S_TABLE)
        s.delete_matching({0: wid})
        s.insert((wid, new_parent))

    # ------------------------------------------------------------------ edges

    def edge_target(self, wid: int, uid: User) -> int:
        try:
            return self._edges[wid][uid]
        except KeyError:
            raise UnknownWorldError(
                f"no {uid!r}-edge from world {wid} "
                f"(path {self._path_by_wid.get(wid)!r})"
            ) from None

    def add_out_edges(self, wid: int, path: BeliefPath) -> None:
        """Give the new world ``wid`` at ``path`` its outgoing edges
        ``(wid, u, dss(path·u))``, one for every user that can extend
        ``path``: the registry in one pass, ``E`` in one batch."""
        self._own()
        targets = self._edges[wid]
        for uid in self._users:
            if can_extend(path, uid):
                targets[uid] = self.wid_of_dss(path + (uid,))
        self.engine.table(E_TABLE).insert_many(
            [(wid, uid, target) for uid, target in targets.items()]
        )

    def set_edge(self, wid: int, uid: User, target: int) -> None:
        """Insert or redirect the unique (wid, uid) edge, in E and registry."""
        self._own()
        edge_table = self.engine.table(E_TABLE)
        if uid in self._edges[wid]:
            edge_table.delete_matching({0: wid, 1: uid})
        edge_table.insert((wid, uid, target))
        self._edges[wid][uid] = target

    def resolve_path(self, path: BeliefPath) -> int:
        """Walk ``path`` from the root along edges; the landing world's
        content is ``D̄_path`` for any valid path (Thm. 17)."""
        validate_path(path)
        self._check_path_users(path)
        wid = ROOT_WID
        for uid in path:
            wid = self.edge_target(wid, uid)
        return wid

    # ------------------------------------------------------------------ tuples

    def _tid(self, t: GroundTuple) -> int | None:
        """``t``'s tid if this store has one (below its watermark)."""
        tid = self._tid_by_tuple.get(t)
        return tid if tid is not None and tid < self._next_tid else None

    def tid_for(self, t: GroundTuple, create: bool = False) -> int | None:
        """The internal key of a ground tuple, optionally creating a star row."""
        tid = self._tid(t)
        if tid is not None or not create:
            return tid
        self.schema.validate(t)
        if not self._owns_tuples:
            self._own_tuples()
        tid = self._next_tid
        self._next_tid += 1
        self._tid_by_tuple[t] = tid
        self._tuple_by_tid[tid] = t
        self.engine.table(star_table_name(t.relation)).insert((tid,) + t.values)
        return tid

    def tuple_for_tid(self, tid: int) -> GroundTuple:
        if tid >= self._next_tid:
            raise KeyError(tid)
        return self._tuple_by_tid[tid]

    def forget_tid(self, tid: int) -> None:
        """Drop ``tid`` from the tuple registry (its star row is gone);
        a fork that still holds the registry keeps it."""
        self._own_tuples()
        t = self._tuple_by_tid.pop(tid, None)
        if t is not None:
            self._tid_by_tuple.pop(t, None)

    def v_table(self, relation: str) -> Table:
        return self.engine.table(v_table_name(relation))

    def star_table(self, relation: str) -> Table:
        return self.engine.table(star_table_name(relation))

    # V columns: (wid, tid, key, s, e)
    def v_rows_for_key(self, wid: int, relation: str, key: Value) -> list[Row]:
        return list(self.v_table(relation).match_named(wid=wid, key=key))

    def v_rows_for_world(self, wid: int, relation: str | None = None) -> list[Row]:
        if relation is not None:
            return list(self.v_table(relation).match_named(wid=wid))
        rows: list[Row] = []
        for rel in self.schema.content_relations:
            rows.extend(self.v_table(rel.name).match_named(wid=wid))
        return rows

    def insert_v(
        self, relation: str, wid: int, tid: int, key: Value, s: str, e: str
    ) -> None:
        self.v_table(relation).insert((wid, tid, key, s, e))

    def add_explicit(self, path: BeliefPath, t: GroundTuple, sign: Sign) -> None:
        """Count explicit statement ``path t^sign``, absent until its
        ``e='y'`` V row went in."""
        if self._journal is not None:
            self._journal.setdefault(BeliefStatement(path, t, sign), False)
        self.explicit_count += 1
        self._lifecycle.statement_inserted(path, t, str(sign))

    def discard_explicit(self, path: BeliefPath, t: GroundTuple, sign: Sign) -> None:
        """Uncount explicit statement ``path t^sign``, present until its
        ``e='y'`` V row went out."""
        if self._journal is not None:
            self._journal.setdefault(BeliefStatement(path, t, sign), True)
        self.explicit_count -= 1

    @contextmanager
    def explicit_journal(self) -> Iterator[dict[BeliefStatement, bool]]:
        """Record, while the block runs, which explicit statements change.

        Yields the journal: each statement added or discarded in the block,
        mapped to whether it was there when the block began — known from
        its first change (an add finds it absent, a discard present). With it the
        statements as they were are recovered (:meth:`explicit_before`)
        without copying them up front.
        """
        self._journal = journal = {}
        try:
            yield journal
        finally:
            self._journal = None

    def explicit_before(
        self, journal: dict[BeliefStatement, bool]
    ) -> list[BeliefStatement]:
        """The explicit statements as they were when ``journal`` began."""
        before = [s for s in self.explicit_statements() if s not in journal]
        before += [s for s, present in journal.items() if present]
        return before

    def delete_v(self, relation: str, **bound: Value) -> int:
        table = self.v_table(relation)
        positions = {
            table.schema.column_index(col): val for col, val in bound.items()
        }
        return table.delete_matching(positions)

    # ------------------------------------------------------------------ content

    def state_world(self, wid: int) -> BeliefWorld:
        """The belief world stored at ``wid`` (eager mode: the entailed world)."""
        pos: list[GroundTuple] = []
        neg: list[GroundTuple] = []
        for rel in self.schema.content_relations:
            for _, tid, _, s, _ in self.v_table(rel.name).match_named(wid=wid):
                (pos if s == SIGN_POS else neg).append(self._tuple_by_tid[tid])
        return BeliefWorld(frozenset(pos), frozenset(neg))

    def entailed_world(self, path: BeliefPath) -> BeliefWorld:
        """``D̄_path`` — from V in eager mode; when lazy, the explicit worlds
        of the suffix chain folded from the root (Fig. 9's overriding union)."""
        if self.eager:
            return self.state_world(self.resolve_path(path))
        validate_path(path)
        self._check_path_users(path)
        world = self.explicit_world(ROOT_PATH)
        for i in reversed(range(len(path))):
            world = self.explicit_world(path[i:]).override(world)
        return world

    def explicit_signs(
        self, path: BeliefPath, relation: str | None = None
    ) -> set[tuple[GroundTuple, Sign]]:
        """``D_path`` as ``(tuple, sign)`` pairs: the ``e='y'`` V rows of the
        world at exactly ``path`` (none if it is no state), of ``relation``
        alone when given, read through V's ``(wid)`` index."""
        wid = self._wid_by_path.get(path)
        if wid is None:
            return set()
        names = (relation,) if relation else [
            rel.name for rel in self.schema.content_relations
        ]
        return {
            (self._tuple_by_tid[tid], str_to_sign(s))
            for name in names
            for _, tid, _, s, e in self.v_table(name).match_named(wid=wid)
            if e == EXPLICIT_YES
        }

    def explicit_world(self, path: BeliefPath) -> BeliefWorld:
        """``D_path``, the explicit belief world at ``path`` (Def. 8(3))."""
        signs = self.explicit_signs(path)
        return BeliefWorld(
            frozenset(t for t, sign in signs if sign is POSITIVE),
            frozenset(t for t, sign in signs if sign is NEGATIVE),
        )

    def has_explicit(self, path: BeliefPath, t: GroundTuple, sign: Sign) -> bool:
        """Is ``path t^sign`` an explicit statement? One ``V(wid, key)`` probe."""
        wid, tid = self._wid_by_path.get(path), self._tid(t)
        if wid is None or tid is None:
            return False
        wanted = (tid, sign_to_str(sign), EXPLICIT_YES)
        return any(
            (row[1], row[3], row[4]) == wanted
            for row in self.v_table(t.relation).match_named(wid=wid, key=t.key)
        )

    def entails(self, path: BeliefPath, t: GroundTuple, sign: Sign) -> bool:
        """``D |= path t^sign`` (Def. 12), no world built in eager mode.

        Prop. 7 reads only the tuples sharing ``t``'s key: ``t+`` holds iff
        ``t`` is a positive, ``t−`` iff it is a stated negative or another
        tuple with its key is a positive (an *unstated* negative). Those
        tuples are one ``V(wid, key)`` bucket, so the answer is one probe;
        a tuple never inserted has no tid and can only be an unstated
        negative. Lazy stores read the closure's world (cached per path).
        """
        if not self.eager:
            return self.entailed_world(path).entails(t, sign)
        wid = self.resolve_path(path)
        if t.relation == self.schema.users_relation:
            return False  # the users catalog holds no beliefs
        tid = self._tid(t)
        wanted = sign_to_str(sign)
        for _, row_tid, _, s, _ in self.v_table(t.relation).match_named(
            wid=wid, key=t.key
        ):
            if row_tid == tid:
                if s == wanted:
                    return True
            elif s == SIGN_POS and sign is NEGATIVE:
                return True
        return False

    def sign_counts(self, path: BeliefPath) -> tuple[int, int]:
        """``(positives, negatives)`` of ``D̄_path``: in eager mode a count
        of ``s`` over the world's ``V(wid)`` rows, no tuple looked up."""
        if not self.eager:
            world = self.entailed_world(path)
            return len(world.positives), len(world.negatives)
        wid = self.resolve_path(path)
        positives = total = 0
        for rel in self.schema.content_relations:
            for row in self.v_table(rel.name).match_named(wid=wid):
                total += 1
                positives += row[3] == SIGN_POS
        return positives, total - positives

    def world_content(
        self, path: BeliefPath
    ) -> list[tuple[GroundTuple, Sign, bool]]:
        """Entailed content of the world at ``path`` with explicitness flags."""
        world = self.entailed_world(path)
        explicit = self.explicit_signs(path)
        out = [(t, POSITIVE, (t, POSITIVE) in explicit) for t in world.positives]
        out += [(t, NEGATIVE, (t, NEGATIVE) in explicit) for t in world.negatives]
        return out

    # ------------------------------------------------------------------ stats

    def total_rows(self) -> int:
        """``|R*|``: total tuples across the internal tables (Sect. 5.4) —
        the lifecycle relations are not among them."""
        return sum(self.row_counts().values())

    def row_counts(self) -> dict[str, int]:
        """Rows per table of ``R*``."""
        return {
            name: count
            for name, count in self.engine.row_counts().items()
            if name not in LIFECYCLE_TABLES
        }

    def relative_overhead(self, annotation_count: int) -> float:
        """The paper's ``|R*|/n`` measure (Sect. 5.4, Table 1, Fig. 6)."""
        if annotation_count <= 0:
            raise ValueError("annotation count must be positive")
        return self.total_rows() / annotation_count

    # ------------------------------------------------------------------ dumps

    def explicit_statements(self) -> Iterator[BeliefStatement]:
        """Every explicit statement: the ``e='y'`` rows of one scan of V."""
        for rel in self.schema.content_relations:
            for wid, tid, _, s, e in self.v_table(rel.name):
                if e == EXPLICIT_YES:
                    yield BeliefStatement(
                        self._path_by_wid[wid], self._tuple_by_tid[tid],
                        str_to_sign(s),
                    )

    def to_belief_database(self) -> BeliefDatabase:
        """A fresh core belief database holding the explicit annotations
        (Algorithm 4 admitted each one: Def. 8(4) is not checked again)."""
        db = BeliefDatabase(schema=self.schema, users=self._users.keys())
        for statement in self.explicit_statements():
            db.add(statement, check=False)
        return db

    @property
    def explicit_db(self) -> BeliefDatabase:
        """For the bench ledger (wl_table2.py, evaluate_lazy): D built from V."""
        return self.to_belief_database()

    # -------------------------------------------------------------- invariants

    def check_invariants(self) -> None:
        """Deep self-check used by the test-suite (registry vs. tables vs. core).

        Verifies that D/S/E mirror the registries, that the explicit
        statements (V's ``e='y'`` rows) are consistent and as many as
        counted, and that every eager world's V content, each belief once,
        equals their core closure. Raises AssertionError on any mismatch
        (InconsistencyError on inconsistent explicit rows).
        """
        d_rows = set(map(tuple, self.engine.table(D_TABLE)))
        assert d_rows == {
            (wid, self._depth[wid]) for wid in self._path_by_wid
        }, "D table out of sync with registry"
        s_rows = set(map(tuple, self.engine.table(S_TABLE)))
        assert s_rows == set(self._s_parent.items()), "S table out of sync"
        e_rows = set(map(tuple, self.engine.table(E_TABLE)))
        expected_edges = {
            (wid, uid, target)
            for wid, per_user in self._edges.items()
            for uid, target in per_user.items()
        }
        assert e_rows == expected_edges, "E table out of sync with registry"
        for wid, path in self._path_by_wid.items():
            for uid in self._users:
                if can_extend(path, uid):
                    assert self._edges[wid].get(uid) == self.wid_of_dss(
                        path + (uid,)
                    ), f"edge ({wid},{uid}) does not target the dss"
            if path != ROOT_PATH:
                assert self._s_parent[wid] == self.wid_of_dss(
                    path[1:]
                ), f"S backlink of world {wid} is not the dss of the suffix"
        explicit = self.to_belief_database().check_consistent()
        assert len(explicit) == self.explicit_count, (
            f"{self.explicit_count} explicit statements counted, "
            f"{len(explicit)} in V"
        )
        if not self.eager:
            return
        for wid, path in self._path_by_wid.items():
            stored = self.state_world(wid)
            expected = core_entailed_world(explicit, path)
            assert stored == expected, (
                f"world {wid} ({path!r}): V content {stored} "
                f"!= closure {expected}"
            )
            rows = self.v_rows_for_world(wid)
            assert len({(row[1], row[3]) for row in rows}) == len(rows), (
                f"world {wid}: a belief is stored twice"
            )
