"""Same-instant hand-offs: ``Simulator.call_soon`` skips the calendar where
that is exact, and nowhere else.

Inside ``run()`` the first hand-off an event makes is parked and called when
the event returns, if no calendar entry is due before it; otherwise it is
pushed under the ``(time, seq)`` it took. Either way it takes a ``seq`` and counts
as an event, so ``_seq``, ``events_processed`` and fire order are what the
eager calendar produces (the property test in ``test_timers.py`` checks
random mixes against a reference calendar).
"""

import pytest

from repro.sim.engine import Simulator


def test_hand_off_with_nothing_due_bypasses_the_heap():
    sim, seen = Simulator(), []

    def event():
        sim.call_soon(hop, "a")
        seen.append(("event", sim.pending))

    def hop(tag):
        seen.append((tag, sim.now, sim.pending))

    sim.schedule(10, event)
    sim.run()
    assert seen == [("event", 0), ("a", 10, 0)]
    assert (sim.events_processed, sim._seq) == (2, 2)


def test_hand_off_queues_behind_an_entry_due_now():
    """An entry due at ``now`` with a smaller ``seq`` fires first: the
    hand-off waits in the heap behind it instead of being called."""
    sim, seen = Simulator(), []

    def event():
        sim.schedule(0, soon)
        sim.call_soon(seen.append, "hop")

    def soon():
        seen.append(("soon", sim.pending))  # the hand-off is in the heap

    sim.schedule(10, event)
    sim.run()
    assert seen == [("soon", 1), "hop"]
    assert (sim.events_processed, sim._seq) == (3, 3)


def test_hand_off_goes_before_later_same_instant_entries():
    """Entries the event schedules after its hand-off (larger ``seq``) fire
    after it, parked or not; a second hand-off of the same event is queued."""
    sim, order = Simulator(), []

    def event():
        sim.call_soon(order.append, "first")
        sim.schedule(0, order.append, "soon")
        sim.call_soon(order.append, "second")

    sim.schedule(10, event)
    sim.run()
    assert order == ["first", "soon", "second"]
    assert (sim.events_processed, sim._seq) == (4, 4)


def test_hand_offs_chain():
    """A called hand-off may hand off again: each link is one event."""
    sim, seen = Simulator(), []

    def hop(n):
        seen.append((n, sim.now))
        if n < 3:
            sim.call_soon(hop, n + 1)

    sim.schedule(5, hop, 0)
    sim.run()
    assert seen == [(0, 5), (1, 5), (2, 5), (3, 5)]
    assert (sim.events_processed, sim._seq, sim.pending) == (4, 4, 0)


def test_outside_run_a_hand_off_goes_to_the_calendar():
    sim, order = Simulator(), []
    sim.call_soon(order.append, "setup")
    assert sim.pending == 1 and order == []

    def event():
        sim.call_soon(order.append, "stepped")

    sim.schedule(1, event)
    assert sim.step() and sim.step()  # "setup", then the event
    assert sim.pending == 1  # step() dispatches one event: the hand-off waits
    sim.run()
    assert order == ["setup", "stepped"]
    assert (sim.events_processed, sim._seq) == (3, 3)


def test_hand_off_of_an_event_that_raises_stays_in_the_calendar():
    sim, order = Simulator(), []

    def event():
        sim.call_soon(order.append, "hop")
        raise RuntimeError("boom")

    sim.schedule(1, event)
    with pytest.raises(RuntimeError):
        sim.run()
    assert sim.pending == 1 and order == []
    sim.run()
    assert order == ["hop"]
    assert (sim.events_processed, sim._seq) == (2, 2)

