"""Incremental update algorithms over the canonical representation (Sect. 5.3).

Implements the paper's Algorithms 2-4 plus deletes:

* :func:`id_world` — Alg. 2 ``idWorld``: return a world's id, creating the
  world (with D/S/E bookkeeping, edge redirection, and implicit-content copy
  from its deepest suffix state) if needed;
* :func:`dss_relational` — Alg. 3 ``dss`` exactly as written, as non-recursive
  Datalog over ``E``/``D`` with a max aggregation (the registry fast path is
  :meth:`BeliefStore.wid_of_dss`; tests assert they agree);
* :func:`insert_tuple` — Alg. 4 ``insertTuple``: consistent insert of a signed
  tuple into a world, with default propagation to all dependent worlds;
* :func:`delete_tuple` — removal of an explicit annotation with key-scoped
  re-derivation of defaults (the paper only sketches deletes).

**Propagation is set-at-a-time.** An insert or delete changes one
``(relation, key)`` cell of one world ``w``; the defaults that follow from
it live in the same cell of ``w`` and of every world below ``w`` in the
inverted suffix tree (``S``). :func:`propagate_key` re-derives that cell
for all of them as one revision, in the sense of Marek et al.'s revision
programs: it reads every world's cell once (one ``(wid, key)`` index probe
each, before anything is written), derives each world's new cell in memory
from its ``S``-parent's *new* cell in ascending depth order, and applies
only the difference — one :meth:`~repro.relational.table.Table.
delete_rowids` and one :meth:`~repro.relational.table.Table.insert_many`
on ``V``. Implicit rows already right stay where they are. World creation
writes the same way: the implicit content copied from the suffix parent
and the new world's outgoing ``E`` edges go in as one batch each.

Deviations from the paper's text (``docs/architecture.md``, "Deviations
from the paper"; all covered by the incremental-vs-batch property tests):

* when a new state ``w`` is created, existing deeper states whose deepest
  proper suffix is now ``w`` get their ``S`` backlink repointed (Alg. 2 only
  repoints ``E``);
* Alg. 4's dependent-world conflict check against ``dss(z)`` (its line 12-14)
  is implemented as the evident intent: ``z`` inherits ``t^s`` iff its parent
  *currently contains* ``t^s`` and ``z`` has no explicit conflict; implicit
  conflicts in ``z`` are overridden.
"""

from __future__ import annotations

from repro.core.paths import BeliefPath, can_extend, is_suffix, validate_path
from repro.core.schema import GroundTuple, Value
from repro.core.statements import POSITIVE, BeliefStatement, Sign
from repro.relational.datalog import Atom, Program, Rule, Var
from repro.relational.table import Table
from repro.storage.internal_schema import (
    D_TABLE,
    E_TABLE,
    EXPLICIT_NO,
    EXPLICIT_YES,
    ROOT_WID,
    SIGN_NEG,
    SIGN_POS,
)
from repro.storage.store import BeliefStore, sign_to_str


# --------------------------------------------------------------------- Alg. 3

def dss_relational(store: BeliefStore, path: BeliefPath) -> int:
    """Alg. 3: world id of the deepest suffix state, via E*/D Datalog queries.

    For ``p = 1 .. d+1`` evaluate ``T(z, y) :- E*(0, w[p,d], z), D(z, y)`` and
    return the ``z`` whose depth ``y`` is maximal. This runs entirely against
    the relational representation — no registry shortcuts — and serves as the
    faithful reference for :meth:`BeliefStore.wid_of_dss`.
    """
    best_wid = ROOT_WID
    best_depth = -1
    d = len(path)
    for p in range(d + 1):
        suffix = path[p:]
        z = Var("z")
        y = Var("y")
        body = []
        previous: object = ROOT_WID
        for i, uid in enumerate(suffix):
            nxt = Var(f"z{i}") if i < len(suffix) - 1 else z
            body.append(Atom(E_TABLE, (previous, uid, nxt)))
            previous = nxt
        if not suffix:
            body.append(Atom(D_TABLE, (ROOT_WID, y)))
            head = Atom("T_dss", (ROOT_WID, y))
        else:
            body.append(Atom(D_TABLE, (z, y)))
            head = Atom("T_dss", (z, y))
        program = Program([Rule(head, body)])
        for wid, depth in store.engine.run(program):
            if depth > best_depth:
                best_wid, best_depth = wid, depth
    return best_wid


# --------------------------------------------------------------------- Alg. 2

def id_world(store: BeliefStore, path: BeliefPath) -> int:
    """Alg. 2 ``idWorld``: the id of the world at ``path``, created on demand.

    Creation steps for a missing world ``w`` of depth ``d`` (numbers refer to
    the paper's listing):

    1-3.  ensure the prefix parent ``w[1,d-1]`` exists (recursively);
    4.    register a fresh wid with its ``D`` row;
    8.    record the ``S`` backlink to ``dss(w[2,d])`` (errata form);
    9.    copy the backlink target's content as implicit tuples (eager mode);
    6.    add outgoing edges ``(x, u, dss(w·u))`` for every user ``u ≠ w[d]``;
    5,7.  redirect the ``w[d]``-edge of every state having ``w[1,d-1]`` as a
          suffix whose current target is shallower than ``d`` — those edges'
          deepest suffix state is now ``w``;
    +     repoint the ``S`` backlink of states whose deepest proper suffix
          becomes ``w`` (see module docstring).
    """
    validate_path(path)
    existing = store.wid_for_path(path)
    if existing is not None:
        return existing
    store._check_path_users(path)
    prefix_wid = id_world(store, path[:-1])
    depth = len(path)
    last_user = path[-1]
    suffix_parent = store.wid_of_dss(path[1:])
    wid = store.register_world(path, suffix_parent)

    if store.eager:
        for relation in store.schema.content_relations:
            v = store.v_table(relation.name)
            v.insert_many([
                (wid, tid, key, s, EXPLICIT_NO)
                for _, tid, key, s, _ in v.match_named(wid=suffix_parent)
            ])

    store.add_out_edges(wid, path)

    candidates = [prefix_wid] + store.dependents_by_depth(prefix_wid)
    for y in candidates:
        y_path = store.path_for_wid(y)
        if not can_extend(y_path, last_user):
            continue
        current = store.edge_target(y, last_user)
        if store.depth_of(current) < depth:
            store.set_edge(y, last_user, wid)

    for z in list(store.s_children(suffix_parent)):
        if z == wid:
            continue
        if is_suffix(path, store.path_for_wid(z)):
            store.repoint_s_parent(z, wid)
    return wid


# --------------------------------------------------------------------- Alg. 4

def insert_tuple(
    store: BeliefStore, path: BeliefPath, t: GroundTuple, sign: Sign
) -> bool:
    """Alg. 4 ``insertTuple``: insert ``t^s`` into the world at ``path``.

    Returns True iff the insert succeeded; False signals a conflict with
    existing *explicit* beliefs in that world (the caller may surface this as
    an error). On success, eager mode propagates the new belief as an implicit
    default into every dependent world that does not contradict it.
    """
    store.schema.validate(t)
    wid = id_world(store, path)
    # Alg. 4 creates the star row first; we defer creation until the insert
    # is known to succeed so rejected inserts leave no orphan tuples (the
    # conflict checks below treat an unknown tid as "tuple nowhere present").
    tid = store.tid_for(t)
    relation, key = t.relation, t.key
    sign_str = sign_to_str(sign)
    rows = store.v_rows_for_key(wid, relation, key)

    if tid is not None:
        # (3) already explicitly present -> reject as a no-op duplicate.
        if any(
            r[1] == tid and r[3] == sign_str and r[4] == EXPLICIT_YES
            for r in rows
        ):
            return False
        # (4) already implicitly present -> flip the explicitness flag.
        if any(
            r[1] == tid and r[3] == sign_str and r[4] == EXPLICIT_NO
            for r in rows
        ):
            store.delete_v(relation, wid=wid, tid=tid, s=sign_str, e=EXPLICIT_NO)
            store.insert_v(relation, wid, tid, key, sign_str, EXPLICIT_YES)
            store.add_explicit(path, t, sign)
            return True
    # (5) explicit conflicts block the insert.
    if _conflicts(rows, tid, sign_str, explicit_only=True):
        return False
    # (1) now the star row may be created.
    tid = store.tid_for(t, create=True)
    assert tid is not None
    # (6-7) the explicit tuple lands; overridden implicit beliefs disappear
    # as part of re-deriving the key cell from the suffix parent.
    store.insert_v(relation, wid, tid, key, sign_str, EXPLICIT_YES)
    store.add_explicit(path, t, sign)

    # (8-14) propagate the default to dependent worlds. Each world's
    # (relation, key) cell is re-derived from its suffix parent — the
    # overriding union of Fig. 9 restricted to one key. This subsumes the
    # paper's per-case checks (lines 11-14) and also clears implicit rows
    # that mirrored parent rows overridden by this insert, a case the paper's
    # surgical formulation misses when the dependent itself has an explicit
    # conflict (docs/architecture.md, "Deviations from the paper").
    if store.eager:
        propagate_key(store, wid, relation, key)
    return True


def _conflicts(rows, tid: int, sign_str: str, explicit_only: bool) -> bool:
    """Does ``t^s`` conflict with the given same-key V rows?

    Positive inserts conflict with a negative of the same tuple and with any
    positive of the same key (Γ1/Γ2); negative inserts conflict with a
    positive of the same tuple.
    """
    for _, tid2, _, s2, e2 in rows:
        if explicit_only and e2 != EXPLICIT_YES:
            continue
        if sign_str == SIGN_POS:
            if s2 == SIGN_POS or (s2 == SIGN_NEG and tid2 == tid):
                return True
        else:
            if s2 == SIGN_POS and tid2 == tid:
                return True
    return False


# --------------------------------------------------------------------- deletes

def delete_tuple(
    store: BeliefStore, path: BeliefPath, t: GroundTuple, sign: Sign
) -> bool:
    """Remove the explicit annotation ``path t^s``; re-derive defaults.

    Returns False when no such explicit annotation exists (implicit beliefs
    cannot be deleted — disagreeing is an insert of the opposite sign).
    After removal, the affected key is re-derived from the suffix parent in
    this world and in every dependent world, shallowest first, so defaults
    that the deleted annotation was blocking reappear.
    """
    validate_path(path)
    wid = store.wid_for_path(path)
    tid = store.tid_for(t)
    if wid is None or tid is None:
        return False
    relation, key = t.relation, t.key
    sign_str = sign_to_str(sign)
    rows = store.v_rows_for_key(wid, relation, key)
    if not any(
        r[1] == tid and r[3] == sign_str and r[4] == EXPLICIT_YES for r in rows
    ):
        return False
    store.delete_v(relation, wid=wid, tid=tid, s=sign_str, e=EXPLICIT_YES)
    store.explicit_db.discard(BeliefStatement(path, t, sign))
    if store.eager:
        propagate_key(store, wid, relation, key)
    return True


#: V's declared ``(wid, key)`` index, the one probe propagation makes.
_WID_KEY = (0, 2)


def propagate_key(
    store: BeliefStore, wid: int, relation: str, key: Value
) -> None:
    """Re-derive the ``(relation, key)`` cell of ``wid`` and of every world
    that depends on it, as one revision.

    A world's cell keeps its explicit rows; its implicit rows are every row
    of its ``S``-parent's cell that no explicit row here overrides (the
    overriding union of Fig. 9, restricted to one key); the root has no
    parent and so no implicit rows. Every cell is read once, before
    anything is written; the worlds are walked in ascending depth, so a
    world's parent cell is the one just derived — or, for ``wid`` itself,
    the one in the table. Then only the difference is written: the implicit
    rows that are no longer derived go in one delete, the newly derived
    ones in one insert.
    """
    table = store.v_table(relation)
    doomed, fresh = _revision(store, table, wid, key)
    table.delete_rowids(doomed)
    table.insert_many(fresh)


def _revision(
    store: BeliefStore, table: Table, wid: int, key: Value
) -> tuple[list[int], list[tuple]]:
    """:func:`propagate_key`'s read: the rowids of the implicit rows to
    delete and the implicit rows to insert. (A function of its own so its
    probe is gone before the table is written: a live probe holds the row
    dict, and the write would copy the dict for it.)"""
    probe, row_at = table.prober(_WID_KEY, rowids=True), table.row
    parent_of = store.s_parent
    #: world -> its new cell, as (tid, s) pairs
    cells: dict[int, list[tuple[int, str]]] = {}
    parent = parent_of(wid)
    if parent is not None:
        cells[parent] = [
            (row[1], row[3]) for row in map(row_at, probe((parent, key)))
        ]
    doomed: list[int] = []
    fresh: list[tuple] = []
    for z in [wid, *store.dependents_by_depth(wid)]:
        explicit: set[tuple[int, str]] = set()
        implicit: dict[tuple[int, str], int] = {}
        for rowid in probe((z, key)):
            _, tid, _, s, e = row_at(rowid)
            if e == EXPLICIT_YES:
                explicit.add((tid, s))
            else:
                implicit[tid, s] = rowid
        derived = cells.get(parent_of(z), ())
        if explicit:
            derived = [
                pair for pair in derived if not _overridden(pair, explicit)
            ]
        for pair in derived:
            if implicit.pop(pair, None) is None:
                fresh.append((z, pair[0], key, pair[1], EXPLICIT_NO))
        doomed.extend(implicit.values())
        cells[z] = [*explicit, *derived]
    return doomed, fresh


def _overridden(pair: tuple[int, str], explicit: set[tuple[int, str]]) -> bool:
    """Does a world's explicit ``(tid, s)`` set block inheriting ``pair``?

    A positive is blocked by any explicit positive of the key (Γ2: one
    value per key) and by the explicit negative of the same tuple; a
    negative by the explicit positive of the same tuple. A pair the world
    states explicitly is not inherited either: it is there already.
    """
    tid, s = pair
    if s == SIGN_POS:
        return any(s2 == SIGN_POS or tid2 == tid for tid2, s2 in explicit)
    return pair in explicit or (tid, SIGN_POS) in explicit


# --------------------------------------------------------------------- wrappers

def insert_statement(store: BeliefStore, stmt: BeliefStatement) -> bool:
    """Insert a :class:`BeliefStatement` (path validated, users checked)."""
    return insert_tuple(store, stmt.path, stmt.tuple, stmt.sign)


def delete_statement(store: BeliefStore, stmt: BeliefStatement) -> bool:
    return delete_tuple(store, stmt.path, stmt.tuple, stmt.sign)
