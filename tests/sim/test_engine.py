"""Event-engine semantics: ordering, cancellation, run bounds."""

import sys

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


def test_clock_starts_at_zero(sim):
    assert sim.now == 0


def test_schedule_and_run_advances_clock(sim):
    fired = []
    sim.schedule(100, fired.append, 1)
    sim.run()
    assert fired == [1]
    assert sim.now == 100


def test_events_fire_in_time_order(sim):
    order = []
    sim.schedule(300, order.append, "c")
    sim.schedule(100, order.append, "a")
    sim.schedule(200, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_fifo(sim):
    order = []
    for i in range(10):
        sim.schedule(50, order.append, i)
    sim.run()
    assert order == list(range(10))


def test_schedule_at_absolute_time(sim):
    sim.schedule(10, lambda: None)
    sim.run()
    fired = []
    sim.schedule_at(500, fired.append, "plain")
    timer = sim.timer(fired.append, "timer")
    timer.schedule_at(500)
    assert timer.time == 500
    sim.run()
    assert fired == ["plain", "timer"] and sim.now == 500


def test_cannot_schedule_in_past(sim):
    sim.schedule(100, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at(50, lambda: None)


def test_cancelled_event_does_not_fire(sim):
    fired = []
    timer = sim.timer(fired.append, 1)
    timer.schedule(100)
    timer.cancel()
    sim.run()
    assert fired == []
    assert not timer.armed


def test_cancellable_event_fires_when_not_cancelled(sim):
    fired = []
    sim.timer(fired.append, 1).schedule(100)
    sim.run()
    assert fired == [1]
    assert sim.now == 100


def test_cancel_is_idempotent(sim):
    fired = []
    timer = sim.timer(fired.append, 1)
    timer.cancel()  # never armed
    timer.schedule(100)
    timer.cancel()
    timer.cancel()
    sim.run()
    assert fired == []


def test_run_until_stops_before_later_events(sim):
    fired = []
    sim.schedule(100, fired.append, 1)
    sim.schedule(300, fired.append, 2)
    sim.run(until=200)
    assert fired == [1]
    assert sim.now == 200
    sim.run()
    assert fired == [1, 2]


def test_run_until_advances_clock_even_without_events(sim):
    sim.run(until=12345)
    assert sim.now == 12345


def test_events_scheduled_during_run_fire(sim):
    order = []

    def first():
        order.append("first")
        sim.schedule(50, lambda: order.append("nested"))

    sim.schedule(10, first)
    sim.run()
    assert order == ["first", "nested"]


def test_call_soon_runs_at_current_time_after_pending(sim):
    order = []

    def handler():
        order.append("a")
        sim.call_soon(lambda: order.append("soon"))
        order.append("b")

    sim.schedule(10, handler)
    sim.run()
    assert order == ["a", "b", "soon"]
    assert sim.now == 10


def test_step_returns_false_when_empty(sim):
    assert sim.step() is False


def test_peek_time_skips_cancelled(sim):
    t1 = sim.timer(lambda: None)
    t1.schedule(100)
    sim.schedule(200, lambda: None)
    t1.cancel()
    assert sim.peek_time() == 200


def test_pending_live_excludes_cancelled(sim):
    t1 = sim.timer(lambda: None)
    t1.schedule(100)
    sim.timer(lambda: None).schedule(150)
    sim.schedule(200, lambda: None)
    assert sim.pending == 3
    assert sim.pending_live == 3
    t1.cancel()
    assert sim.pending == 3
    assert sim.pending_live == 2


def test_mixed_plain_and_cancellable_fifo_order(sim):
    order = []
    sim.schedule(50, order.append, "plain-0")
    sim.timer(order.append, "cancellable").schedule(50)
    sim.schedule(50, order.append, "plain-1")
    sim.run()
    assert order == ["plain-0", "cancellable", "plain-1"]


def test_run_skips_cancelled_without_counting(sim):
    timer = sim.timer(lambda: None)
    timer.schedule(100)
    sim.schedule(200, lambda: None)
    timer.cancel()
    sim.run()
    assert sim.events_processed == 1
    assert sim.now == 200


def test_events_processed_counter(sim):
    for _ in range(5):
        sim.schedule(1, lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_reentrant_run_rejected(sim):
    def inner():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1, inner)
    sim.run()


def test_admission_adds_no_python_frame(sim):
    """``schedule`` is the only Python frame between a caller and the heap:
    admission is a C call (``partial(heappush, heap)``), the clock an
    attribute. A frame around either shows up here as a second ``call``."""
    nothing = lambda: None  # noqa: E731 - never fires
    calls = 0
    engine = sys.modules[Simulator.__module__].__file__

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == engine:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        for i in range(1000):
            sim.schedule(i, nothing)
    finally:
        sys.setprofile(previous)
    assert calls == 1000
    assert sim.pending == 1000
    assert sim.now == 0
