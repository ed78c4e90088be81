"""The lifecycle registry: apply semantics, audit, forks, provenance.

Includes the reachability property demanded by the durability story: *every*
status history the registry can be driven into — by any interleaving of
valid and invalid operations — respects the transition table. Invalid
operations raise and leave no trace; what remains is always a legal path.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LifecycleConflictError, LifecycleError
from repro.lifecycle.model import PROPOSED, STATUSES, TRANSITIONS, belief_id, belief_key
from repro.lifecycle.registry import LifecycleRegistry


def _propose(
    registry: LifecycleRegistry, values=("s1",), ts=100.0, **extra
) -> str:
    record = {
        "op": "lifecycle", "action": "propose",
        "path": [3], "relation": "Sightings", "values": list(values),
        "sign": "+", "actor": extra.pop("actor", 3), "ts": ts, **extra,
    }
    return registry.apply(record)["belief"]


def _transition(registry, belief, to, ts=110.0, **extra):
    return registry.apply({
        "op": "lifecycle", "action": "transition",
        "belief": belief, "to": to, "ts": ts, **extra,
    })


class TestApply:
    def test_propose_starts_proposed_and_audits(self):
        registry = LifecycleRegistry()
        bid = _propose(registry, confidence=0.8, derived_from=["Bob"])
        record = registry.require(bid)
        assert record.status == PROPOSED
        assert record.confidence == 0.8
        assert record.derived_from == ("Bob",)
        (event,) = registry.audit_events()
        assert event["action"] == "propose"
        assert event["belief"] == bid
        assert event["seq"] == 1

    def test_duplicate_propose_raises(self):
        registry = LifecycleRegistry()
        _propose(registry)
        with pytest.raises(LifecycleError, match="already has"):
            _propose(registry)
        assert registry.audit_count() == 1  # the failed op left no trace

    def test_transition_walks_the_table(self):
        registry = LifecycleRegistry()
        bid = _propose(registry)
        for to in ("ACTIVE", "CHALLENGED", "DEPRECATED", "ARCHIVED"):
            assert _transition(registry, bid, to)["status"] == to
        froms = [
            e["from"] for e in registry.audit_events()
            if e["action"] == "transition"
        ]
        assert froms == ["PROPOSED", "ACTIVE", "CHALLENGED", "DEPRECATED"]

    def test_illegal_transition_is_a_typed_conflict(self):
        registry = LifecycleRegistry()
        bid = _propose(registry)
        with pytest.raises(LifecycleConflictError, match="cannot go"):
            _transition(registry, bid, "ARCHIVED")
        assert registry.require(bid).status == PROPOSED

    def test_cas_expect_mismatch_is_a_typed_conflict(self):
        registry = LifecycleRegistry()
        bid = _propose(registry)
        _transition(registry, bid, "ACTIVE")
        with pytest.raises(LifecycleConflictError, match="another curator"):
            _transition(registry, bid, "ACTIVE", expect="CHALLENGED")

    def test_unknown_belief_raises(self):
        with pytest.raises(LifecycleError, match="no lifecycle record"):
            _transition(LifecycleRegistry(), "bdeadbeef0000", "ACTIVE")

    def test_decay_sweep_is_deterministic_in_ts(self):
        registry = LifecycleRegistry()
        _propose(registry, values=("a",), ts=0.0,
                 confidence=0.8, decay="exponential:100")
        _propose(registry, values=("b",), ts=0.0, confidence=0.8)  # no decay
        result = registry.apply({
            "op": "lifecycle", "action": "decay_sweep", "ts": 100.0,
        })
        assert result == {"swept": 1, "changed": 1}
        decayed = registry.get(belief_key((3,), "Sightings", ("a",), "+"))
        assert decayed.confidence == pytest.approx(0.4)
        untouched = registry.get(belief_key((3,), "Sightings", ("b",), "+"))
        assert untouched.confidence == 0.8

    def test_archived_beliefs_stop_decaying(self):
        registry = LifecycleRegistry()
        bid = _propose(registry, ts=0.0, confidence=0.9,
                       decay="exponential:100")
        for to in ("ACTIVE", "CHALLENGED", "DEPRECATED", "ARCHIVED"):
            _transition(registry, bid, to, ts=1.0)
        result = registry.apply({
            "op": "lifecycle", "action": "decay_sweep", "ts": 500.0,
        })
        assert result == {"swept": 0, "changed": 0}
        assert registry.require(bid).confidence == 0.9


class TestForks:
    def test_fork_is_isolated_from_later_writes(self):
        registry = LifecycleRegistry()
        bid = _propose(registry)
        fork = registry.fork()
        _transition(registry, bid, "ACTIVE")
        assert registry.require(bid).status == "ACTIVE"
        assert fork.require(bid).status == PROPOSED
        # The audit list is shared, but the watermark bounds the fork.
        assert registry.audit_count() == 2
        assert fork.audit_count() == 1
        assert [e["action"] for e in fork.audit_events()] == ["propose"]

    def test_fork_shares_the_audit_list_object(self):
        registry = LifecycleRegistry()
        _propose(registry)
        fork = registry.fork()
        assert fork._audit is registry._audit  # O(1) fork, by construction

    def test_audit_by_belief_equals_the_full_filter_on_forks_and_live(self):
        """``audit_events(belief=b, limit=k)`` reads ``b``'s own positions;
        it must answer exactly as filtering the whole visible history, on
        a fork taken mid-history, on the live registry and on a restore."""
        registry = LifecycleRegistry()
        ids = [
            _propose(registry, values=(f"s{i}",), ts=float(i),
                     confidence=0.9, decay="linear:0.001")
            for i in range(4)
        ]
        _transition(registry, ids[0], "ACTIVE")
        registry.apply({"op": "lifecycle", "action": "decay_sweep", "ts": 50.0})
        _transition(registry, ids[2], "ACTIVE")
        fork = registry.fork()  # mid-history: later events are not its own
        _transition(registry, ids[0], "CHALLENGED")
        ids.append(_propose(registry, values=("late",)))
        _transition(registry, ids[2], "CHALLENGED")
        registry.apply({"op": "lifecycle", "action": "decay_sweep", "ts": 90.0})
        _transition(registry, ids[4], "ACTIVE")
        restored = LifecycleRegistry.from_dump(registry.dump())
        assert fork.audit_count() < registry.audit_count()
        for view in (fork, registry, restored):
            history = view.audit_events()
            for bid in [*ids, "b-unknown"]:
                mine = [event for event in history if event["belief"] == bid]
                assert view.audit_events(belief=bid) == mine
                for limit in (0, 1, 2, 3, 10):
                    assert view.audit_events(belief=bid, limit=limit) == \
                        mine[-limit:], (bid, limit)
            for limit in (0, 1, 5):
                assert view.audit_events(limit=limit) == history[-limit:]
        assert len(fork.audit_events(belief=ids[0])) == 2
        assert fork.audit_events(belief=ids[4]) == []


class TestProvenance:
    def test_chain_walks_derived_from_links(self):
        registry = LifecycleRegistry()
        root = _propose(registry, values=("s1",), derived_from=["Volunteer7"])
        child = _propose(registry, values=("s2",), derived_from=[root])
        result = registry.provenance(child)
        assert result["belief"] == child
        beliefs = [node["belief"] for node in result["chain"]]
        assert beliefs == [child, root]
        assert result["chain"][1]["derived_from"] == ["Volunteer7"]

    def test_derivation_tokens_are_transitive(self):
        registry = LifecycleRegistry()
        root = _propose(registry, values=("s1",), actor=1,
                        derived_from=["Volunteer7"])
        child = _propose(registry, values=("s2",), actor=2,
                         derived_from=[root])
        tokens = registry.derivation_tokens(registry.require(child))
        assert {child, root, 1, 2, "Volunteer7"} <= tokens

    def test_cyclic_links_terminate(self):
        registry = LifecycleRegistry()
        a = _propose(registry, values=("a",))
        key_a = belief_key((3,), "Sightings", ("a",), "+")
        b = _propose(registry, values=("b",), derived_from=[a])
        # Forge a cycle directly (the public API can't create one because
        # ids are content-derived): a also claims descent from b.
        registry._records[key_a] = dataclasses.replace(
            registry.require(key_a), derived_from=(b,)
        )
        tokens = registry.derivation_tokens(registry.require(b))
        assert {a, b} <= tokens
        assert len(registry.provenance(b)["chain"]) == 2


class TestDump:
    def test_round_trip_is_bit_identical(self):
        registry = LifecycleRegistry()
        root = _propose(registry, values=("s1",), confidence=0.7,
                        decay="linear:0.001", derived_from=["Bob"])
        _propose(registry, values=("s2",), derived_from=[root])
        _transition(registry, root, "ACTIVE")
        registry.apply({
            "op": "lifecycle", "action": "decay_sweep", "ts": 200.0,
        })
        restored = LifecycleRegistry.from_dump(registry.dump())
        assert restored.dump() == registry.dump()
        assert restored.audit_events() == registry.audit_events()
        # The restored registry keeps appending from the right seq.
        bid = _propose(restored, values=("s3",))
        assert restored.audit_events()[-1]["seq"] == \
            registry.audit_count() + 1
        assert restored.require(bid).status == PROPOSED


# --------------------------------------------------------------- the property

_actions = st.lists(
    st.one_of(
        # Propose one of three beliefs (duplicates will raise — fine).
        st.tuples(st.just("propose"), st.integers(0, 2)),
        # Transition one of them to an arbitrary status, sometimes CAS.
        st.tuples(
            st.just("transition"),
            st.integers(0, 2),
            st.sampled_from(STATUSES),
            st.one_of(st.none(), st.sampled_from(STATUSES)),
        ),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(_actions)
def test_every_reachable_history_respects_the_transition_table(actions):
    """Drive the registry with arbitrary (often invalid) operations; the
    surviving audit history of every belief must be a legal walk of
    TRANSITIONS starting at PROPOSED, ending at the belief's live status."""
    registry = LifecycleRegistry()
    ids: dict[int, str] = {}
    ts = 0.0
    for action in actions:
        ts += 1.0
        try:
            if action[0] == "propose":
                ids[action[1]] = _propose(
                    registry, values=(f"s{action[1]}",), ts=ts
                )
            else:
                _, slot, to, expect = action
                bid = ids.get(slot, belief_id(
                    belief_key((3,), "Sightings", (f"s{slot}",), "+")
                ))
                _transition(registry, bid, to, ts=ts, expect=expect)
        except LifecycleError:  # includes conflict subclass: no state change
            continue
    for bid in ids.values():
        events = registry.audit_events(belief=bid)
        assert events[0]["action"] == "propose"
        status = PROPOSED
        for event in events[1:]:
            assert event["action"] == "transition"
            assert event["from"] == status
            assert event["to"] in TRANSITIONS[status], (
                f"audit history shows illegal {status} -> {event['to']}"
            )
            status = event["to"]
        assert registry.require(bid).status == status, (
            "live status diverged from the audit history"
        )
