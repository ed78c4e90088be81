"""The internal schema ``R* = (R*_1..R*_r, U, V_1..V_r, E, D, S)`` (Sect. 5.1).

For every content relation ``Ri(key_i, att_2, ..., att_l)`` of the external
schema, the internal schema holds:

* ``star_Ri(tid, key_i, att_2, ..., att_l)`` — one row per *distinct ground
  tuple* across all worlds, keyed by the surrogate ``tid`` (the only internal
  key constraint);
* ``v_Ri(wid, tid, key, s, e)`` — the valuation relation: which tuple appears
  in which world, with sign ``s ∈ {'+','-'}`` and explicitness ``e ∈ {'y','n'}``
  (explicitly annotated vs. implied by the message board assumption).

Plus the world-management relations shared by all content relations:

* ``U(uid, name)`` — registered users;
* ``E(wid1, uid, wid2)`` — the accessibility edges of the canonical Kripke
  structure, one per (world, user) with ``wid2 = wid(dss(path·uid))``;
* ``D(wid, d)`` — nesting depth of each world;
* ``S(wid1, wid2)`` — the deepest-suffix-state backlink
  ``S(wid(w), wid(dss(w[2,d])))`` (per the Appendix C.3 errata), i.e. each
  world's parent in the inverted suffix tree along which defaults propagate.

Signs and flags use the paper's literal values ``'+'/'-'`` and ``'y'/'n'`` so
that dumps line up with Fig. 5.
"""

from __future__ import annotations

from repro.core.schema import ExternalSchema, RelationDef
from repro.relational.database import RelationalDatabase
from repro.relational.schema import TableSchema

#: Literal sign values stored in V, matching the paper's figures.
SIGN_POS = "+"
SIGN_NEG = "-"
#: Literal explicitness flags stored in V.
EXPLICIT_YES = "y"
EXPLICIT_NO = "n"

#: The root world id (the paper's world ``#0``).
ROOT_WID = 0

U_TABLE = "U"
E_TABLE = "E"
D_TABLE = "D"
S_TABLE = "S"


def star_table_name(relation: str) -> str:
    """Name of the internal tuple-store table for ``relation`` (``R*_i``)."""
    return f"star_{relation}"


def v_table_name(relation: str) -> str:
    """Name of the internal valuation table for ``relation`` (``V_i``)."""
    return f"v_{relation}"


def star_schema(relation: RelationDef) -> TableSchema:
    return TableSchema(
        star_table_name(relation.name),
        ("tid",) + relation.attributes,
        key=("tid",),
    )


def v_schema(relation: RelationDef) -> TableSchema:
    return TableSchema(
        v_table_name(relation.name),
        ("wid", "tid", "key", "s", "e"),
        indexes=(("wid", "key"), ("wid",), ("tid",)),
    )


def create_internal_tables(
    engine: RelationalDatabase, schema: ExternalSchema
) -> None:
    """Create all internal tables with their declared hot indexes on ``engine``.

    Indexes mirror the paper's setup ("clustered indexes are available over
    the internal keys"): V is probed by ``(wid, key)`` during updates, by
    ``(wid,)`` during queries and by ``(tid,)`` from the star join; E by
    ``(wid1, uid)`` for the E*-chains of Algorithm 1. They are declared on
    the schemas, so the engine's hash indexes and the sqlite mirror's
    b-trees come from this one list. (A chain whose user is a variable —
    ``q3``: "which users ..." — probes E by ``wid1`` alone. That index is
    not declared: at m = 100 users it costs every insert a bucket update
    per new edge and the store 10% of its memory, for a query shape most
    stores never see; the engine builds and then keeps it where the shape
    does occur, see "Adoption" in :mod:`repro.relational.table`.)
    """
    engine.create_table(TableSchema(U_TABLE, ("uid", "name"), key=("uid",)))
    engine.create_table(
        TableSchema(
            E_TABLE, ("wid1", "uid", "wid2"), indexes=(("wid1", "uid"),)
        )
    )
    engine.create_table(TableSchema(D_TABLE, ("wid", "d"), key=("wid",)))
    engine.create_table(TableSchema(S_TABLE, ("wid1", "wid2"), key=("wid1",)))
    for relation in schema.content_relations:
        engine.create_table(star_schema(relation))
        engine.create_table(v_schema(relation))
