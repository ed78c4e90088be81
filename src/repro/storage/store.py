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

The store also keeps a mirror :class:`~repro.core.database.BeliefDatabase` of
the explicit statements. It is the source of truth for consistency checks in
tests, powers lazy evaluation via the core closure, and supports rebuilding.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

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
    EXPLICIT_NO,
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

        #: Mirror of the explicit annotations as a core belief database.
        self.explicit_db = BeliefDatabase(schema=schema)

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

        # Tuple registry mirroring the star tables.
        self._tid_by_tuple: dict[GroundTuple, int] = {}
        self._tuple_by_tid: dict[int, GroundTuple] = {}
        self._next_tid = 1

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
        tid = self._tid_by_tuple.get(GroundTuple(key[1], key[2]))
        return None if wid is None or tid is None else (wid, tid)

    # ------------------------------------------------------------- snapshots

    def fork_snapshot(self) -> "BeliefStore":
        """An immutable-by-convention copy-on-write fork of the whole store.

        The engine tables (the lifecycle relations among them), the explicit
        mirror and the lifecycle registry fork copy-on-write (rows stay
        shared until one side mutates); the small registries are copied
        eagerly — O(worlds + users + tuples) dict copies, paid once per
        pinned version, never per write. The result is a fully functional
        :class:`BeliefStore`, so every query backend evaluates against it
        unchanged; the MVCC layer (:mod:`repro.storage.mvcc`) hands these
        out as pinned versions and mutates only the live store.
        """
        fork = BeliefStore.__new__(BeliefStore)
        fork.schema = self.schema
        fork.eager = self.eager
        fork.engine = self.engine.snapshot_fork()
        fork.explicit_db = self.explicit_db.snapshot_fork()
        fork._wid_by_path = dict(self._wid_by_path)
        fork._path_by_wid = dict(self._path_by_wid)
        fork._depth = dict(self._depth)
        fork._s_parent = dict(self._s_parent)
        fork._s_children = defaultdict(
            set, {k: set(v) for k, v in self._s_children.items()}
        )
        fork._next_wid = self._next_wid
        fork._edges = {wid: dict(per) for wid, per in self._edges.items()}
        fork._users = dict(self._users)
        fork._uid_by_name = dict(self._uid_by_name)
        fork._next_uid = self._next_uid
        fork._tid_by_tuple = dict(self._tid_by_tuple)
        fork._tuple_by_tid = dict(self._tuple_by_tid)
        fork._next_tid = self._next_tid
        fork._lifecycle = self._lifecycle.fork(fork)
        return fork

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
        self._users[uid] = display
        self._uid_by_name[display] = uid
        self.engine.table(U_TABLE).insert((uid, display))
        self.explicit_db.register_user(uid)
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
        targets = self._edges[wid]
        for uid in self._users:
            if can_extend(path, uid):
                targets[uid] = self.wid_of_dss(path + (uid,))
        self.engine.table(E_TABLE).insert_many(
            [(wid, uid, target) for uid, target in targets.items()]
        )

    def set_edge(self, wid: int, uid: User, target: int) -> None:
        """Insert or redirect the unique (wid, uid) edge, in E and registry."""
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

    def tid_for(self, t: GroundTuple, create: bool = False) -> int | None:
        """The internal key of a ground tuple, optionally creating a star row."""
        tid = self._tid_by_tuple.get(t)
        if tid is not None or not create:
            return tid
        self.schema.validate(t)
        tid = self._next_tid
        self._next_tid += 1
        self._tid_by_tuple[t] = tid
        self._tuple_by_tid[tid] = t
        self.engine.table(star_table_name(t.relation)).insert((tid,) + t.values)
        return tid

    def tuple_for_tid(self, tid: int) -> GroundTuple:
        return self._tuple_by_tid[tid]

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
        """Record explicit statement ``path t^sign`` (its V row is in)."""
        self.explicit_db.add(BeliefStatement(path, t, sign), check=False)
        self._lifecycle.statement_inserted(path, t, str(sign))

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
        """``D̄_path`` — from V in eager mode, via the core closure when lazy."""
        if self.eager:
            return self.state_world(self.resolve_path(path))
        validate_path(path)
        self._check_path_users(path)
        return core_entailed_world(self.explicit_db, path)

    def world_content(
        self, path: BeliefPath
    ) -> list[tuple[GroundTuple, Sign, bool]]:
        """Entailed content of the world at ``path`` with explicitness flags."""
        world = self.entailed_world(path)
        explicit = self.explicit_db.explicit_signs(path)
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
        return iter(self.explicit_db.statements())

    def to_belief_database(self) -> BeliefDatabase:
        """A fresh core belief database holding the explicit annotations."""
        return BeliefDatabase(
            self.explicit_db.statements(),
            schema=self.schema,
            users=self._users.keys(),
        )

    # -------------------------------------------------------------- invariants

    def check_invariants(self) -> None:
        """Deep self-check used by the test-suite (registry vs. tables vs. core).

        Verifies that D/S/E mirror the registries, that every eager world's V
        content equals the core closure of the explicit statements, and that
        explicitness flags match. Raises AssertionError on any mismatch.
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
        if not self.eager:
            return
        for wid, path in self._path_by_wid.items():
            stored = self.state_world(wid)
            expected = core_entailed_world(self.explicit_db, path)
            assert stored == expected, (
                f"world {wid} ({path!r}): V content {stored} "
                f"!= closure {expected}"
            )
            explicit = self.explicit_db.explicit_signs(path)
            for rel in self.schema.content_relations:
                for _, tid, _, s, e in self.v_table(rel.name).match_named(wid=wid):
                    pair = (self._tuple_by_tid[tid], str_to_sign(s))
                    assert (e == EXPLICIT_YES) == (pair in explicit), (
                        f"world {wid}: explicitness flag wrong for {pair}"
                    )
