"""Property tests of the rendezvous affinity router.

The router's contract is what makes sticky sessions safe to operate:

* the session→slot mapping is a **pure function of the live membership
  set** — any interleaving of joins and leaves reaching the same
  membership routes every session identically;
* retiring a slot is **minimally disruptive** — only the sessions that
  were pinned to the dead slot move, and they all land on survivors.

Hypothesis drives both over arbitrary membership sets, session-id
alphabets and join/leave interleavings.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.sessions import AffinityRouter, SessionState, SlotPool
from repro.util.errors import ServingError

slot_ids = st.text(
    alphabet="abcdefghij0123456789-", min_size=1, max_size=12
).map(lambda s: f"slot:{s}")

session_ids = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=16
)

slot_sets = st.sets(slot_ids, min_size=1, max_size=8)


@given(slots=slot_sets, session=session_ids)
@settings(max_examples=200, deadline=None)
def test_mapping_is_deterministic_per_membership(slots, session):
    """Two routers with the same membership agree on every session."""
    a = AffinityRouter(sorted(slots))
    b = AffinityRouter(sorted(slots, reverse=True))
    assert a.slot_for(session) == b.slot_for(session)
    assert a.slot_for(session) in slots


@given(
    slots=slot_sets,
    extra=slot_ids,
    sessions=st.lists(session_ids, min_size=1, max_size=20),
    interleave=st.lists(st.booleans(), min_size=0, max_size=16),
)
@settings(max_examples=100, deadline=None)
def test_any_join_leave_interleaving_converges(slots, extra, sessions, interleave):
    """Joins/leaves in any order reach the same routing table.

    The router takes churn — an extra slot joining and leaving any
    number of times, re-joins of existing members — and as long as the
    final membership equals *slots*, every session routes exactly as a
    fresh router over *slots* would.
    """
    reference = AffinityRouter(sorted(slots))
    churned = AffinityRouter(sorted(slots))
    for join in interleave:
        if join:
            churned.join(extra)
        else:
            churned.leave(extra)
    churned.leave(extra)  # force final membership back to *slots*
    for slot in slots:
        churned.join(slot)  # idempotent re-joins must not matter
    assert churned.slots == reference.slots
    for session in sessions:
        assert churned.slot_for(session) == reference.slot_for(session)


@given(slots=st.sets(slot_ids, min_size=2, max_size=8),
       sessions=st.lists(session_ids, min_size=1, max_size=30, unique=True))
@settings(max_examples=100, deadline=None)
def test_slot_death_moves_only_its_sessions(slots, sessions):
    """Removing one slot re-routes exactly the sessions pinned to it."""
    router = AffinityRouter(sorted(slots))
    before = {s: router.slot_for(s) for s in sessions}
    victim = router.slot_for(sessions[0])  # a slot that owns >= 1 session
    router.leave(victim)
    for session in sessions:
        after = router.slot_for(session)
        if before[session] == victim:
            assert after != victim  # moved, and to a live slot
            assert after in slots
        else:
            assert after == before[session]  # untouched


@given(slots=st.sets(slot_ids, min_size=2, max_size=8),
       sessions=st.lists(session_ids, min_size=1, max_size=30, unique=True))
@settings(max_examples=50, deadline=None)
def test_rejoin_restores_the_original_mapping(slots, sessions):
    """Membership is all that matters: leave + rejoin round-trips."""
    router = AffinityRouter(sorted(slots))
    before = {s: router.slot_for(s) for s in sessions}
    victim = sorted(slots)[0]
    router.leave(victim)
    router.join(victim)
    assert {s: router.slot_for(s) for s in sessions} == before


def test_empty_router_raises():
    router = AffinityRouter()
    with pytest.raises(ServingError):
        router.slot_for("anyone")
    router.join("slot-a")
    assert router.slot_for("anyone") == "slot-a"
    router.leave("slot-a")
    with pytest.raises(ServingError):
        router.slot_for("anyone")


@given(sessions=st.lists(session_ids, min_size=1, max_size=20, unique=True))
@settings(max_examples=50, deadline=None)
def test_slotpool_retire_reports_exactly_the_moved_sessions(sessions):
    """SlotPool.retire re-pins the dead slot's sessions and no others."""
    backend = lambda request, degraded: b""  # noqa: E731 - never called here
    pool = SlotPool(backend, 3)
    try:
        states = []
        for session in sessions:
            state = SessionState(session, tenant="t")
            state.pin(pool.slot_for(session).id)
            states.append(state)
        victim = pool.slot_for(sessions[0]).id
        pinned_to_victim = {s.id for s in states if s.slot == victim}
        others_before = {s.id: s.slot for s in states if s.slot != victim}
        moved = pool.retire(victim, states)
        assert set(moved) == pinned_to_victim
        for state in states:
            if state.id in moved:
                assert state.slot == moved[state.id]
                assert state.slot != victim
                assert state.slot in pool.live_slots
            else:
                assert state.slot == others_before[state.id]
    finally:
        pool.shutdown()
