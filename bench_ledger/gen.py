"""The ledger's annotation stream: the Sect. 6.1 generator, stratified.

``repro.workload.AnnotationGenerator`` draws every annotation's depth and
belief path independently, so two seeds give stores whose world count,
``|R*|/n`` and query costs differ by ~10% at n=2000 — wider than the bounds
a regression is judged by. This generator meets the same parameters
(``n`` annotations, ``m`` users, a depth distribution, uniform or Zipf
participation, a quarter of the nested beliefs negative) by *quota*: each
depth and each belief path gets its expected share of the stream, rounded
by largest remainder. The seed then decides everything else — the order,
which sighting each nested belief is about, which ones are negative, every
attribute value — so different seeds are different inputs of the same
shape. Like the original, depth-0 annotations report fresh sightings and
nested ones target a sighting already reported.

It lives here, not in ``src/``, so a change to ``repro.workload`` cannot
move the ruler.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

SPECIES = (
    "bald eagle", "fish eagle", "crow", "raven", "osprey", "great blue heron",
    "red-tailed hawk", "barred owl", "douglas squirrel", "black bear",
    "mountain beaver", "rufous hummingbird", "steller's jay", "common loon",
)
LOCATIONS = (
    "Lake Forest", "Lake Placid", "Cedar River", "Mount Si", "Puget Sound",
    "Snoqualmie Pass", "Olympic NP", "Discovery Park", "Union Bay",
)
NEGATIVE_SHARE = 0.25


def quotas(total: int, weights: Sequence[float], rng: random.Random) -> list[int]:
    """``total`` split in proportion to ``weights`` (largest remainder).

    Equal remainders are ranked by ``rng``: with uniform weights the seed
    picks *which* paths get the odd annotation, never how many do.
    """
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    out = [int(x) for x in exact]
    by_remainder = sorted(
        range(len(exact)), key=lambda i: (out[i] - exact[i], rng.random())
    )
    for i in by_remainder[: total - sum(out)]:
        out[i] += 1
    return out


def _user_weights(n_users: int, participation: str) -> list[float]:
    if participation == "uniform":
        return [1.0] * n_users
    if participation == "zipf":
        return [1.0 / rank for rank in range(1, n_users + 1)]
    raise ValueError(f"unknown participation model {participation!r}")


def _paths(
    depth: int, count: int, weights: list[float], rng: random.Random
) -> list[tuple[int, ...]]:
    """``count`` belief paths of one depth, each path at its quota."""
    users = range(1, len(weights) + 1)
    candidates = [
        path for path in itertools.product(users, repeat=depth)
        if all(a != b for a, b in zip(path, path[1:]))
    ]
    path_weights = []
    for path in candidates:
        weight = 1.0
        for uid in path:
            weight *= weights[uid - 1]
        path_weights.append(weight)
    out: list[tuple[int, ...]] = []
    for path, quota in zip(candidates, quotas(count, path_weights, rng)):
        out.extend([path] * quota)
    return out


def annotation_stream(
    n: int,
    n_users: int,
    participation: str,
    depth_distribution: Sequence[float],
    seed: int,
) -> list[tuple[tuple[int, ...], tuple, str]]:
    """``n`` annotations as ``(path, values, sign)``, in load order.

    The store rejects a few (an explicit conflict, a duplicate), so callers
    ask for some spare and stop loading at the count they want accepted.
    """
    rng = random.Random(seed)
    weights = _user_weights(n_users, participation)
    paths: list[tuple[int, ...]] = []
    for depth, count in enumerate(quotas(n, depth_distribution, rng)):
        paths.extend(_paths(depth, count, weights, rng))
    rng.shuffle(paths)
    nested = [i for i, path in enumerate(paths) if path]
    negative = set(rng.sample(nested, round(len(nested) * NEGATIVE_SHARE)))
    keys: list[str] = []
    out = []
    for i, path in enumerate(paths):
        if path and keys:
            key = rng.choice(keys)
        else:
            key = f"s{len(keys)}"
            keys.append(key)
        values = (
            key, rng.randrange(1, n_users + 1), rng.choice(SPECIES),
            f"{rng.randrange(1, 13)}-{rng.randrange(1, 29)}-08",
            rng.choice(LOCATIONS),
        )
        out.append((path, values, "-" if i in negative else "+"))
    return out
