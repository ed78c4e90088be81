"""Shared fixtures: the paper's running example (Sect. 2, Fig. 2/4/5).

Users are registered with the ids of Fig. 5 — Alice = 1, Bob = 2, Carol = 3 —
so tests can compare the relational representation against the paper verbatim.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import pytest
from hypothesis import settings

from repro.core.database import BeliefDatabase
from repro.core.schema import ExternalSchema, GroundTuple, sightings_schema
from repro.core.statements import BeliefStatement, ground, negative, positive
from repro.storage.store import BeliefStore
from repro.storage.updates import insert_statement

settings.register_profile("default", deadline=None, max_examples=60)
#: CI's protocol-fuzz step raises the example budget on the wire-codec
#: property suite (select with HYPOTHESIS_PROFILE=protocol-fuzz).
settings.register_profile("protocol-fuzz", deadline=None, max_examples=500)
#: CI's storage step raises it on the incremental-vs-batch and batched-write
#: properties, whose tier-1 budgets are floors (``tests.strategies.budget``).
settings.register_profile("storage-props", deadline=None, max_examples=500)
#: CI's query step raises it on prepared-select re-execution against a
#: fresh translation and the references, and on the WITH plans.
settings.register_profile("query-props", deadline=None, max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

ALICE, BOB, CAROL = 1, 2, 3
USER_NAMES = {ALICE: "Alice", BOB: "Bob", CAROL: "Carol"}


@dataclass
class RunningExample:
    """Everything Sect. 2 inserts, in one bundle."""

    schema: ExternalSchema
    s11: GroundTuple
    s12: GroundTuple
    s21: GroundTuple
    s22: GroundTuple
    c11: GroundTuple
    c21: GroundTuple
    c22: GroundTuple
    statements: list[BeliefStatement] = field(default_factory=list)

    @property
    def tuples(self) -> list[GroundTuple]:
        return [self.s11, self.s12, self.s21, self.s22,
                self.c11, self.c21, self.c22]

    def database(self) -> BeliefDatabase:
        return BeliefDatabase(
            self.statements, schema=self.schema, users=[ALICE, BOB, CAROL]
        )

    def store(self) -> BeliefStore:
        store = BeliefStore(self.schema)
        for uid, name in USER_NAMES.items():
            store.add_user(name, uid=uid)
        for stmt in self.statements:
            assert insert_statement(store, stmt), stmt
        return store


def make_running_example() -> RunningExample:
    schema = sightings_schema()
    t = schema.tuple
    ex = RunningExample(
        schema=schema,
        s11=t("Sightings", "s1", CAROL, "bald eagle", "6-14-08", "Lake Forest"),
        s12=t("Sightings", "s1", CAROL, "fish eagle", "6-14-08", "Lake Forest"),
        s21=t("Sightings", "s2", ALICE, "crow", "6-14-08", "Lake Placid"),
        s22=t("Sightings", "s2", ALICE, "raven", "6-14-08", "Lake Placid"),
        c11=t("Comments", "c1", "found feathers", "s2"),
        c21=t("Comments", "c2", "black feathers", "s2"),
        c22=t("Comments", "c2", "purple black feathers", "s2"),
    )
    ex.statements = [
        ground(ex.s11),                      # i1: Carol's report
        negative([BOB], ex.s11),             # i2: Bob doubts the bald eagle
        negative([BOB], ex.s12),             # i3: ... and the fish eagle
        positive([ALICE], ex.s21),           # i4: Alice believes a crow
        positive([ALICE], ex.c11),           # i5: Alice's comment
        positive([BOB], ex.s22),             # i6: Bob believes a raven
        positive([BOB, ALICE], ex.c21),      # i7: Bob's higher-order belief
        positive([BOB], ex.c22),             # i8: Bob's own comment
    ]
    return ex


@pytest.fixture
def example() -> RunningExample:
    return make_running_example()


@pytest.fixture
def example_db(example: RunningExample) -> BeliefDatabase:
    return example.database()


@pytest.fixture
def example_store(example: RunningExample) -> BeliefStore:
    return example.store()


@pytest.fixture
def schema() -> ExternalSchema:
    return sightings_schema()
