"""Belief statements ``ϕ = w t^s`` and signs (Def. 8).

A belief statement annotates a ground tuple ``t`` with a belief path ``w`` and a
sign ``s ∈ {+, −}``: ``Bob·Alice t−`` reads "Bob believes that Alice believes
that tuple t is false". A statement with the empty path is plain database
content (the root world).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from repro.core.paths import BeliefPath, User, format_path, make_path
from repro.core.schema import GroundTuple
from repro.errors import BeliefDBError


class Sign(enum.Enum):
    """The sign ``s`` of a belief statement: positive or negative belief."""

    POSITIVE = "+"
    NEGATIVE = "-"

    @classmethod
    def coerce(cls, value: "Sign | str") -> "Sign":
        """Accept a :class:`Sign` or one of the strings ``'+'``/``'-'``."""
        if isinstance(value, Sign):
            return value
        if value == "+":
            return cls.POSITIVE
        if value in ("-", "−"):  # accept the paper's unicode minus too
            return cls.NEGATIVE
        raise BeliefDBError(f"not a sign: {value!r} (expected '+' or '-')")

    @property
    def negated(self) -> "Sign":
        return Sign.NEGATIVE if self is Sign.POSITIVE else Sign.POSITIVE

    def __str__(self) -> str:
        return self.value


POSITIVE = Sign.POSITIVE
NEGATIVE = Sign.NEGATIVE


@dataclass(frozen=True)
class BeliefStatement:
    """A belief statement ``ϕ = w t^s`` (Def. 8).

    ``path`` must be in ``Û*``; validation happens in :func:`statement` and in
    the database layer — the dataclass itself trusts its inputs so that bulk
    construction stays cheap.
    """

    path: BeliefPath
    tuple: GroundTuple
    sign: Sign

    @property
    def depth(self) -> int:
        """The nesting depth ``d = |w|`` of the statement's belief path."""
        return len(self.path)

    def prefixed(self, user: User) -> "BeliefStatement":
        """The statement ``i·ϕ`` (used by the default rule ``ϕ : iϕ / iϕ``).

        The caller must ensure ``user`` differs from ``path[0]`` so the result
        stays in ``Û*``; the closure machinery checks this.
        """
        return BeliefStatement((user,) + self.path, self.tuple, self.sign)

    def __str__(self) -> str:
        prefix = "" if not self.path else f"[{format_path(self.path)}] "
        return f"{prefix}{self.tuple}{self.sign}"


def statement(
    path: Iterable[User],
    t: GroundTuple,
    sign: Sign | str,
) -> BeliefStatement:
    """Validated constructor for belief statements.

    >>> from repro.core.schema import sightings_schema
    >>> s = sightings_schema()
    >>> t = s.tuple('Sightings', 's1', 'Carol', 'bald eagle', '6-14-08', 'LF')
    >>> str(statement(('Bob',), t, '-'))
    "[Bob] Sightings('s1', 'Carol', 'bald eagle', '6-14-08', 'LF')-"
    """
    return BeliefStatement(make_path(path), t, Sign.coerce(sign))


def positive(path: Iterable[User], t: GroundTuple) -> BeliefStatement:
    """Shorthand for a positive belief statement ``w t+``."""
    return statement(path, t, Sign.POSITIVE)


def negative(path: Iterable[User], t: GroundTuple) -> BeliefStatement:
    """Shorthand for a negative belief statement ``w t−``."""
    return statement(path, t, Sign.NEGATIVE)


def ground(t: GroundTuple) -> BeliefStatement:
    """A plain (root-world) tuple insert: ``t+`` with the empty belief path."""
    return BeliefStatement((), t, Sign.POSITIVE)
