"""Soft-cancel timers on the lazy-cancel heap.

The property test drives a seeded random mix of plain events, one-shot
timers that may be cancelled, re-armed timers with deadlines from
microseconds to tens of seconds, and same-instant hand-offs
(``Simulator.call_soon``, which the reference queues like any event at
``now``) through the engine and through an independent reference calendar
(below), and requires the exact same fire sequence and final clock.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.units import ms, seconds


class _RefTimer:
    """Reference soft-cancel owner: live while ``gen`` is its newest entry."""

    def __init__(self, cal, fn, args):
        self.cal, self.fn, self.args, self.gen = cal, fn, args, None

    def schedule(self, delay):
        self.gen = self.cal.push(delay, self)

    def cancel(self):
        self.gen = None


class ReferenceCalendar:
    """The oracle: an unsorted list scanned with ``min()`` by ``(time,
    seq)``; every event is a one-entry-per-arm timer, and an entry whose
    owner has moved on (re-armed, cancelled, fired) is dropped unfired."""

    def __init__(self):
        self.now = self.seq = self.processed = 0
        self.entries = []

    def push(self, delay, owner):
        self.seq += 1
        self.entries.append((self.now + delay, self.seq, owner))
        return self.seq

    def timer(self, fn, *args):
        return _RefTimer(self, fn, args)

    def schedule(self, delay, fn, *args):
        _RefTimer(self, fn, args).schedule(delay)

    def call_soon(self, fn, *args):
        self.schedule(0, fn, *args)

    def run(self):
        while self.entries:
            entry = min(self.entries)  # seq is unique: owners never compare
            self.entries.remove(entry)
            time, seq, owner = entry
            if owner.gen == seq:
                owner.gen = None
                self.now = time
                self.processed += 1
                owner.fn(*owner.args)


def _random_workload(sim, rng, fired):
    """Schedule a seeded mix that exercises every admission path."""
    timers = [
        sim.timer(lambda i=i: fired.append(("timer", i, sim.now))) for i in range(8)
    ]
    handles = []

    def noteworthy(tag):
        fired.append((tag, sim.now))

    # Spread deadlines across ~ms, ~hundreds of ms, and tens of seconds,
    # from a moving "now".
    def spray(depth):
        if depth == 0:
            return
        for _ in range(rng.randrange(1, 5)):
            choice = rng.randrange(8)
            delay = rng.choice(
                [rng.randrange(0, 2_000_000),
                 rng.randrange(0, 300_000_000),
                 rng.randrange(0, 30 * 10**9)]
            )
            if choice == 0:
                sim.schedule(delay, noteworthy, f"plain-{depth}")
            elif choice == 1:
                one_shot = sim.timer(noteworthy, f"canc-{depth}")
                one_shot.schedule(delay)
                handles.append(one_shot)
            elif choice == 2 and handles:
                handles.pop(rng.randrange(len(handles))).cancel()
            elif choice == 3:
                timers[rng.randrange(len(timers))].schedule(delay)
            elif choice == 4:
                timers[rng.randrange(len(timers))].cancel()
            elif choice in (2, 5):
                # Re-schedule from inside a callback: the recursive case.
                sim.schedule(delay, spray, depth - 1)
            elif choice == 6:
                sim.call_soon(noteworthy, f"now-{depth}")
            else:
                # A hand-off that schedules in turn (and may hand off again).
                sim.call_soon(spray, depth - 1)
        if rng.randrange(2):
            # The event's last calendar action is a hand-off: tail position.
            sim.call_soon(noteworthy, f"tail-{depth}")

    spray(4)
    return timers


def _fire_sequences(seed):
    """Run the seeded workload on the engine and on the reference."""
    sim, fired = Simulator(), []
    _random_workload(sim, random.Random(seed), fired)
    sim.run()
    assert sim.pending_live == 0
    ref, expected = ReferenceCalendar(), []
    _random_workload(ref, random.Random(seed), expected)
    ref.run()
    # One generation per arm, whether or not its push was deferred.
    assert sim._seq == ref.seq
    assert sim.events_processed == ref.processed
    return (fired, sim.now), (expected, ref.now)


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_engine_matches_reference_calendar(seed):
    """Seeded random schedule/cancel/re-arm: the heap fires exactly what
    the min()-scan reference fires, in the same order, ending at the same
    instant."""
    engine, reference = _fire_sequences(seed)
    assert engine[0], "workload fired nothing"
    assert engine == reference


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_engine_matches_reference_calendar_for_any_seed(seed):
    engine, reference = _fire_sequences(seed)
    assert engine == reference


def test_far_future_events_fire_in_order():
    """Deadlines milliseconds, seconds and minutes out fire in time order."""
    sim = Simulator()
    fired = []
    for t in (seconds(40), ms(1), seconds(20), seconds(300), 0):
        sim.schedule_at(t, fired.append, t)
    sim.run()
    assert fired == [0, ms(1), seconds(20), seconds(40), seconds(300)]
    assert sim.now == seconds(300)


class TestTimer:
    def test_rearm_supersedes(self):
        sim = Simulator()
        fired = []
        timer = sim.timer(lambda: fired.append(sim.now))
        timer.schedule(100)
        timer.schedule(50)  # supersedes; only the 50ns arm fires
        sim.run()
        assert fired == [50]

    def test_cancel_and_rearm_cycle(self):
        sim = Simulator()
        fired = []
        timer = sim.timer(fired.append, "x")
        for _ in range(3):
            timer.schedule(10)
            timer.cancel()
        assert not timer.armed
        timer.schedule(10)
        assert timer.armed and timer.time == 10
        sim.run()
        assert fired == ["x"]
        assert not timer.armed

    def test_fire_disarms(self):
        sim = Simulator()
        timer = sim.timer(lambda: None)
        timer.schedule(5)
        sim.run()
        assert not timer.armed
        # Re-arming after a fire works (the reuse the call sites rely on).
        timer.schedule(5)
        assert timer.armed
        sim.run()
        assert not timer.armed

    def test_past_deadline_rejected(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run()
        timer = sim.timer(lambda: None)
        with pytest.raises(SimulationError):
            timer.schedule_at(50)
        with pytest.raises(SimulationError):
            timer.schedule(-1)

    def test_stale_entries_are_free(self):
        """Re-arming to an earlier deadline leaves stale calendar entries
        behind; they are dropped without firing and pending_live never
        counts them."""
        sim = Simulator()
        fired = []
        timer = sim.timer(lambda: fired.append(sim.now))
        for delay in range(50, 0, -1):
            timer.schedule(delay)
        assert sim.pending == 50
        assert sim.pending_live == 1
        sim.run()
        assert fired == [1]
        assert sim.pending == 0


class TestDeferredRearm:
    """A deadline that only moves later rides on the timer's pending entry
    and is pushed, under the key its own arm would have had, when that entry
    surfaces."""

    def test_later_deadlines_keep_one_calendar_entry(self):
        sim = Simulator()
        fired = []
        timer = sim.timer(lambda: fired.append(sim.now))
        for delay in range(100, 1100, 100):
            timer.schedule(delay)
        assert sim.pending == 1
        assert sim.pending_live == 1
        assert timer.armed and timer.time == 1000
        sim.run()
        assert fired == [1000]
        assert sim.events_processed == 1
        assert sim._seq == 10

    def test_same_instant_order_is_the_arm_order(self):
        sim = Simulator()
        fired = []
        timer = sim.timer(fired.append, "timer")
        timer.schedule_at(100)
        sim.schedule_at(1000, fired.append, "before")
        timer.schedule_at(1000)  # rides on the entry at 100
        sim.schedule_at(1000, fired.append, "after")
        assert sim.pending == 3
        sim.run()
        assert fired == ["before", "timer", "after"]

    def test_cancel_then_later_arm_reuses_the_entry(self):
        sim = Simulator()
        fired = []
        timer = sim.timer(lambda: fired.append(sim.now))
        timer.schedule(40)
        timer.cancel()
        timer.schedule(60)
        assert sim.pending == 1
        timer.cancel()
        timer.schedule(20)  # earlier than the entry: needs its own
        assert sim.pending == 2
        sim.run()
        assert fired == [20]

    def test_cancelled_while_riding_never_fires(self):
        sim = Simulator()
        fired = []
        timer = sim.timer(fired.append, "x")
        timer.schedule(10)
        timer.schedule(50)
        timer.cancel()
        sim.run()
        assert fired == [] and sim.pending == 0 and sim.now == 0

    @pytest.mark.parametrize("drain", ["run", "step", "peek_time"])
    def test_entry_dropped_ahead_of_the_clock_is_forgotten(self, drain):
        """run() without ``until``, step() and peek_time() pop stale entries
        without moving the clock to them; an idle timer must not wait for an
        entry that is gone."""
        sim = Simulator()
        fired = []
        timer = sim.timer(lambda: fired.append(sim.now))
        timer.schedule(10)
        timer.cancel()
        if drain == "run":
            sim.run()
        elif drain == "step":
            assert sim.step() is False
        else:
            assert sim.peek_time() is None
        assert sim.pending == 0 and sim.now == 0
        timer.schedule(30)
        assert sim.pending == 1
        sim.run()
        assert fired == [30]

    def test_peek_time_sees_the_riding_deadline(self):
        sim = Simulator()
        timer = sim.timer(lambda: None)
        timer.schedule(10)
        timer.schedule(70)
        assert sim.peek_time() == 70
        assert sim.pending_live == 1

    def test_rearm_from_own_callback(self):
        sim = Simulator()
        fired = []

        def tick():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.schedule(10)

        timer = sim.timer(tick)
        timer.schedule(10)
        sim.run()
        assert fired == [10, 20, 30]


def test_detached_process_never_reschedules():
    """SimProcess.detach() (flow departure) silences arm_timer and wake_now
    permanently — the dead-timer fix behind flow churn."""
    from repro.sim.process import SimProcess

    class Proc(SimProcess):
        def on_wakeup(self):
            pass

    sim = Simulator()
    proc = Proc(sim, "p")
    proc.arm_timer(100)
    assert proc.timer_armed
    proc.detach()
    assert not proc.timer_armed
    proc.arm_timer(50)
    proc.wake_now()
    assert not proc.timer_armed
    assert sim.pending_live == 0
    sim.run()
    assert proc.wakeups == 0


def test_detached_tcp_endpoints_never_reschedule():
    """TcpSender/TcpReceiver detach() cancels the RTO and delayed-ACK timers
    and refuses re-arms from straggler input."""
    from repro.kernel.socket import UdpSocket
    from repro.tcp.sender import TcpSender
    from repro.tcp.receiver import TcpReceiver

    sim = Simulator()
    sender_sock = UdpSocket(sim, "10.0.0.1", 1, egress=None)
    sender_sock.connect("10.0.0.2", 2)
    recv_sock = UdpSocket(sim, "10.0.0.2", 2, egress=None)
    recv_sock.connect("10.0.0.1", 1)
    sender = TcpSender(sim, sender_sock, 10_000)
    receiver = TcpReceiver(sim, recv_sock, 10_000)
    sim.schedule_at(0, sender.start)
    sim.run(until=ms(1))
    sender.detach()
    receiver.detach()
    live_before = sim.pending_live
    sender._arm_rto()
    assert sim.pending_live == live_before
