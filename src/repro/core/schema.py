"""External schema and ground tuples (Sect. 3, "Standard relational background").

The paper fixes a relational schema ``R = (R1, ..., Rr)`` where every relation
``Ri(att_i1, ..., att_il)`` has a distinguished *primary key* attribute — by
convention the first one (written ``key_i``). Users see this *external schema*;
belief annotations are kept transparently in the internal schema (Sect. 5.1).

This module provides:

* :class:`RelationDef` — one external relation with named attributes;
* :class:`ExternalSchema` — an ordered collection of relations, one of which may
  be designated as the *users relation* (the ``Users(uid, name)`` catalog of the
  running example, which the internal schema stores as the plain table ``U``);
* :class:`GroundTuple` — a typed, immutable ground tuple ``R_i(a1, ..., al)``
  whose ``key`` is the value of the first attribute (``key(t)`` in the paper).

Tuple universes of distinct relations are disjoint by construction because a
:class:`GroundTuple` carries its relation name and compares by it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

from repro.errors import SchemaError

#: Attribute values are plain immutable Python scalars.
Value = Any


@dataclass(frozen=True)
class RelationDef:
    """One relation of the external schema.

    The first attribute is the external primary key (``key_i`` in the paper).
    ``arity`` is the number of attributes (``l_i``).
    """

    name: str
    attributes: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"relation name must be an identifier: {self.name!r}")
        if isinstance(self.attributes, list):
            object.__setattr__(self, "attributes", tuple(self.attributes))
        if len(self.attributes) < 1:
            raise SchemaError(f"relation {self.name} needs at least a key attribute")
        seen: set[str] = set()
        for att in self.attributes:
            if not att or not att.isidentifier():
                raise SchemaError(
                    f"attribute name must be an identifier: {att!r} in {self.name}"
                )
            if att in seen:
                raise SchemaError(f"duplicate attribute {att!r} in {self.name}")
            seen.add(att)

    @property
    def key_attribute(self) -> str:
        """Name of the external key attribute (the first one)."""
        return self.attributes[0]

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def tuple(self, *values: Value) -> "GroundTuple":
        """Build a :class:`GroundTuple` for this relation, checking the arity."""
        return GroundTuple(self.name, tuple(values), _arity=self.arity)

    def tuple_from_mapping(self, mapping: Mapping[str, Value]) -> "GroundTuple":
        """Build a tuple from an attribute-name mapping (all attributes required)."""
        missing = [a for a in self.attributes if a not in mapping]
        if missing:
            raise SchemaError(f"missing attributes for {self.name}: {missing}")
        extra = [a for a in mapping if a not in self.attributes]
        if extra:
            raise SchemaError(f"unknown attributes for {self.name}: {extra}")
        return self.tuple(*(mapping[a] for a in self.attributes))


@dataclass(frozen=True)
class GroundTuple:
    """A typed ground tuple ``R_i(a1, ..., al)`` from the tuple universe ``Tup``.

    ``key`` is ``key(t)``, the typed value of the key attribute (Def. 1). Two
    tuples are equal iff they belong to the same relation and agree on every
    attribute value. ``_arity`` is an optional construction-time arity check and
    does not participate in equality.
    """

    relation: str
    values: tuple[Value, ...]
    _arity: int | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if isinstance(self.values, list):
            object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise SchemaError(f"tuple for {self.relation} has no attributes")
        if self._arity is not None and len(self.values) != self._arity:
            raise SchemaError(
                f"{self.relation} expects {self._arity} attributes, "
                f"got {len(self.values)}: {self.values!r}"
            )

    @property
    def key(self) -> Value:
        """The external key value ``key(t)`` — the first attribute."""
        return self.values[0]

    @property
    def key_id(self) -> tuple[str, Value]:
        """Relation-qualified key, the unit of all conflict checks (Γ, Prop. 7)."""
        return (self.relation, self.values[0])

    def same_key(self, other: "GroundTuple") -> bool:
        """True iff ``other`` is from the same relation and shares the key."""
        return self.relation == other.relation and self.values[0] == other.values[0]

    def __str__(self) -> str:
        inner = ", ".join(repr(v) for v in self.values)
        return f"{self.relation}({inner})"


class ExternalSchema:
    """The external schema ``R = (R1, ..., Rr)`` seen by users.

    ``users_relation`` optionally names the catalog relation (``Users`` in the
    running example). It is *not* annotated with beliefs: the internal schema
    keeps it as the plain table ``U`` (Sect. 5.1), and BeliefSQL queries against
    it are compiled to user atoms rather than modal subgoals.
    """

    def __init__(
        self,
        relations: Iterable[RelationDef],
        users_relation: str | None = None,
    ) -> None:
        self._relations: dict[str, RelationDef] = {}
        for rel in relations:
            if rel.name in self._relations:
                raise SchemaError(f"duplicate relation {rel.name!r}")
            self._relations[rel.name] = rel
        if users_relation is not None and users_relation not in self._relations:
            raise SchemaError(f"users relation {users_relation!r} is not declared")
        self.users_relation = users_relation

    # -- lookup ----------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[RelationDef]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    @property
    def content_relations(self) -> tuple[RelationDef, ...]:
        """All relations except the users catalog — the ones that get beliefs."""
        return tuple(
            rel for rel in self._relations.values() if rel.name != self.users_relation
        )

    def relation(self, name: str) -> RelationDef:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    # -- tuple helpers ----------------------------------------------------

    def tuple(self, relation: str, *values: Value) -> GroundTuple:
        """Build an arity-checked ground tuple for ``relation``."""
        return self.relation(relation).tuple(*values)

    def validate(self, t: GroundTuple) -> GroundTuple:
        """Check that ``t`` fits this schema; return it unchanged."""
        rel = self.relation(t.relation)
        if len(t.values) != rel.arity:
            raise SchemaError(
                f"{t.relation} expects {rel.arity} attributes, got {len(t.values)}"
            )
        return t

    def replace(self, t: GroundTuple, **changes: Value) -> GroundTuple:
        """Return a copy of ``t`` with named attributes replaced.

        Replacing the key attribute is allowed (it produces a tuple for a
        different external entity, as used by BeliefSQL ``update``).
        """
        rel = self.relation(t.relation)
        values = list(t.values)
        for att, val in changes.items():
            if att not in rel.attributes:
                raise SchemaError(f"unknown attribute {att!r} for {t.relation}")
            values[rel.attributes.index(att)] = val
        return rel.tuple(*values)

    def attribute_index(self, relation: str, attribute: str) -> int:
        rel = self.relation(relation)
        try:
            return rel.attributes.index(attribute)
        except ValueError:
            raise SchemaError(
                f"unknown attribute {attribute!r} for {relation}"
            ) from None


def sightings_schema() -> ExternalSchema:
    """The running-example schema of Sect. 2 (Sightings/Comments/Users)."""
    return ExternalSchema(
        [
            RelationDef(
                "Sightings", ("sid", "uid", "species", "date", "location")
            ),
            RelationDef("Comments", ("cid", "comment", "sid")),
            RelationDef("Users", ("uid", "name")),
        ],
        users_relation="Users",
    )


def experiment_schema() -> ExternalSchema:
    """The Sect. 6 experiment schema: running example without Comments."""
    return ExternalSchema(
        [
            RelationDef(
                "Sightings", ("sid", "uid", "species", "date", "location")
            ),
            RelationDef("Users", ("uid", "name")),
        ],
        users_relation="Users",
    )
