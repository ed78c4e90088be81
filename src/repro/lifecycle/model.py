"""Belief lifecycle model: statuses, the transition table, decay, keys.

Every explicit belief statement can carry a *lifecycle record*: a status in
the curation state machine, a confidence score with a pluggable decay model,
and a provenance chain (``derived_from`` links to parent beliefs and users).
This module holds the pure data model; :mod:`repro.lifecycle.registry` owns
the mutable registry and the append-only audit log.

The state machine follows curation practice (a proposed annotation must be
accepted before it can be challenged; a challenge resolves back to active or
down to deprecated; only deprecated beliefs are archived)::

    PROPOSED ──► ACTIVE ──► CHALLENGED ──► DEPRECATED ──► ARCHIVED
                    ▲            │
                    └────────────┘  (challenge resolved in favour)

A belief is identified by its *key* — the canonical (path, relation, values,
sign) of the underlying explicit statement — and addressed by a stable
content-derived id (``b`` + truncated SHA-1 of the key), so ids survive WAL
replay, snapshot restore, and are shard-stable.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import LifecycleError

# ------------------------------------------------------------------ statuses

PROPOSED = "PROPOSED"
ACTIVE = "ACTIVE"
CHALLENGED = "CHALLENGED"
DEPRECATED = "DEPRECATED"
ARCHIVED = "ARCHIVED"

STATUSES = (PROPOSED, ACTIVE, CHALLENGED, DEPRECATED, ARCHIVED)

#: The enforced transition table: status -> statuses reachable in one step.
TRANSITIONS: dict[str, frozenset[str]] = {
    PROPOSED: frozenset({ACTIVE}),
    ACTIVE: frozenset({CHALLENGED}),
    CHALLENGED: frozenset({ACTIVE, DEPRECATED}),
    DEPRECATED: frozenset({ARCHIVED}),
    ARCHIVED: frozenset(),
}

#: Statuses whose confidence is still live and subject to decay sweeps.
DECAYABLE = frozenset({PROPOSED, ACTIVE, CHALLENGED})


def check_status(status: str) -> str:
    if status not in TRANSITIONS:
        raise LifecycleError(
            f"unknown status {status!r}; expected one of {', '.join(STATUSES)}"
        )
    return status


# -------------------------------------------------------------------- decay

DecayFn = Callable[[float, float], float]


def _decay_none(confidence: float, age_s: float) -> float:
    return confidence


def _decay_exponential(half_life_s: float) -> DecayFn:
    def fn(confidence: float, age_s: float) -> float:
        if age_s <= 0:
            return confidence
        return confidence * 0.5 ** (age_s / half_life_s)

    return fn


def _decay_linear(rate_per_s: float) -> DecayFn:
    def fn(confidence: float, age_s: float) -> float:
        if age_s <= 0:
            return confidence
        return max(0.0, confidence - rate_per_s * age_s)

    return fn


#: Pluggable decay models: name -> factory(arg) -> decay function. A spec is
#: ``"none"`` or ``"<name>:<positive float arg>"`` (e.g. ``exponential:3600``
#: halves confidence every hour of inactivity).
DECAY_MODELS: dict[str, Callable[[float], DecayFn]] = {
    "exponential": _decay_exponential,
    "linear": _decay_linear,
}


def parse_decay(spec: str) -> DecayFn:
    """Resolve a decay spec to its function; raises LifecycleError if bad."""
    if spec == "none":
        return _decay_none
    name, sep, arg = spec.partition(":")
    factory = DECAY_MODELS.get(name)
    if factory is None or not sep:
        raise LifecycleError(
            f"unknown decay model {spec!r}; expected 'none' or one of "
            + ", ".join(f"'{n}:<arg>'" for n in sorted(DECAY_MODELS))
        )
    try:
        value = float(arg)
    except ValueError:
        value = -1.0
    if value <= 0:
        raise LifecycleError(f"decay model {spec!r} needs a positive argument")
    return factory(value)


def check_confidence(confidence: Any) -> float:
    if isinstance(confidence, bool) or not isinstance(confidence, (int, float)):
        raise LifecycleError(f"confidence must be a number, got {confidence!r}")
    value = float(confidence)
    if not 0.0 <= value <= 1.0:
        raise LifecycleError(f"confidence must be in [0, 1], got {value}")
    return value


# --------------------------------------------------------------------- keys

#: Canonical identity of a tracked belief: (path uids, relation, values, sign).
BeliefKey = tuple[tuple[Any, ...], str, tuple[Any, ...], str]


def belief_key(
    path: Sequence[Any], relation: str, values: Sequence[Any], sign: str
) -> BeliefKey:
    if sign not in ("+", "-"):
        raise LifecycleError(f"sign must be '+' or '-', got {sign!r}")
    return (tuple(path), str(relation), tuple(values), sign)


def encode_key(key: BeliefKey) -> list[Any]:
    """JSON-friendly key form for WAL records and snapshots."""
    return [list(key[0]), key[1], list(key[2]), key[3]]


def decode_key(raw: Sequence[Any]) -> BeliefKey:
    path, relation, values, sign = raw
    return belief_key(path, relation, values, sign)


def belief_id(key: BeliefKey) -> str:
    """Stable content-derived id: identical across replay, restore, shards."""
    blob = json.dumps(encode_key(key), separators=(",", ":"), sort_keys=False)
    return "b" + hashlib.sha1(blob.encode("utf-8")).hexdigest()[:12]


_BELIEF_ID = re.compile(r"b[0-9a-f]{12}\Z")


def is_belief_id(token: Any) -> bool:
    """Could ``token`` name a belief (is it shaped like :func:`belief_id`)?"""
    return isinstance(token, str) and _BELIEF_ID.match(token) is not None


# ------------------------------------------------------------------- records

@dataclass(frozen=True, slots=True)
class LifecycleRecord:
    """The lifecycle state of one tracked belief statement."""

    belief_id: str
    key: BeliefKey
    status: str
    confidence: float
    actor: Any  # uid of the proposing curator
    decay: str  # decay spec, e.g. "none" or "exponential:3600"
    derived_from: tuple[str, ...]  # parent belief ids and/or user refs
    created_ts: float
    updated_ts: float

    def with_status(self, status: str, ts: float) -> "LifecycleRecord":
        return LifecycleRecord(
            self.belief_id, self.key, status, self.confidence, self.actor,
            self.decay, self.derived_from, self.created_ts, ts,
        )

    def with_confidence(self, confidence: float, ts: float) -> "LifecycleRecord":
        return LifecycleRecord(
            self.belief_id, self.key, self.status, confidence, self.actor,
            self.decay, self.derived_from, self.created_ts, ts,
        )

    def view(self) -> dict[str, Any]:
        """JSON-friendly view for wire responses, snapshots, and the CLI."""
        return {
            "belief": self.belief_id,
            "path": list(self.key[0]),
            "relation": self.key[1],
            "values": list(self.key[2]),
            "sign": self.key[3],
            "status": self.status,
            "confidence": self.confidence,
            "actor": self.actor,
            "decay": self.decay,
            "derived_from": list(self.derived_from),
            "created_ts": self.created_ts,
            "updated_ts": self.updated_ts,
        }

    @classmethod
    def from_view(cls, view: dict[str, Any]) -> "LifecycleRecord":
        key = belief_key(
            view["path"], view["relation"], view["values"], view["sign"]
        )
        return cls(
            belief_id=view["belief"],
            key=key,
            status=check_status(view["status"]),
            confidence=float(view["confidence"]),
            actor=view["actor"],
            decay=view["decay"],
            derived_from=tuple(view["derived_from"]),
            created_ts=float(view["created_ts"]),
            updated_ts=float(view["updated_ts"]),
        )
