"""Nanosecond-resolution discrete-event engine.

The engine is a calendar built on a binary heap. Events scheduled for the
same instant fire in scheduling order (FIFO), which keeps simulations
deterministic for a fixed seed.

Hot-path design: calendar entries are plain ``(time, seq, fn, args)``
tuples, so ordering is decided by C-level tuple comparison on ``(time,
seq)`` — no ``__lt__`` dispatch into Python, and no per-event handle
allocation. A deadline that is cancelled or re-armed holds a reusable
:class:`Timer` (:meth:`Simulator.timer`), which pushes ``(time, seq, timer,
None)`` entries — the ``args is None`` sentinel is how the run loop tells
the two entry shapes apart without an isinstance check.

Soft cancel: cancelling or re-arming never searches the calendar. Each
timer entry records the generation (the global ``seq``) it was armed with;
:meth:`Timer.cancel` and re-arming simply move the timer's ``_live_seq`` so
stale entries no longer match and are dropped when they reach the head of
the heap.

Deferred re-arm: a :class:`Timer` whose deadline moves *later* (an RTO
pushed out by every ACK, a delayed-ACK timer cancelled and armed again)
pushes nothing while an entry of its own is still ahead of the clock. The
generation is allocated at arm time all the same, and when that entry
surfaces the live deadline is pushed under the ``(time, seq)`` key the eager
push would have had — so fire order, ``_seq`` and ``events_processed`` do not
depend on whether a push was deferred.

Same-instant hand-off: :meth:`Simulator.call_soon` is how the datapath's
zero-delay hops are made. Inside :meth:`Simulator.run` the first hand-off an
event makes waits in a one-entry tail slot instead of the heap; when the
event returns, the loop calls it straight away if no calendar entry is due
before it, and otherwise pushes it under the ``(time, seq)`` it took. It is
the entry the loop would have popped next, so the same argument holds: fire
order, ``_seq`` and ``events_processed`` are the eager calendar's, and no
call site has to prove anything about what its caller does afterwards.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Optional

from repro.errors import SimulationError

#: The tail slot outside :meth:`Simulator.run`: already full, so every
#: :meth:`Simulator.call_soon` there goes to the calendar.
_NO_SLOT = (None,)

#: ``run()``'s bound when it has none.
_FOREVER = float("inf")


class Timer:
    """A reusable soft-cancel timer bound to one callback.

    Re-arming (``schedule``/``schedule_at``) allocates nothing and never
    touches the previously armed calendar entry: the stale entry simply
    stops matching the timer's generation and is discarded for free when
    the calendar reaches it. This is what per-flow ACK/PTO/pacing
    deadlines use — they re-arm on nearly every packet.

    ``(_entry_time, _entry_seq)`` is the newest entry pushed for this timer.
    While the clock is short of ``_entry_time`` that entry is in the calendar
    (firing it moves the clock there; dropping it as stale goes through
    :meth:`_surfaced`), and a deadline at or after it rides on it instead of
    pushing its own.
    """

    __slots__ = ("time", "fn", "args", "_live_seq", "_sim", "_entry_time", "_entry_seq")

    def __init__(self, sim: "Simulator", fn: Callable[..., Any], args: tuple):
        self._sim = sim
        self.fn = fn
        self.args = args
        self.time = 0
        self._live_seq = -1
        self._entry_time = -1
        self._entry_seq = -1

    def schedule_at(self, time_ns: int) -> None:
        """(Re-)arm at absolute time ``time_ns``; supersedes any prior arm."""
        sim = self._sim
        now = sim.now
        if time_ns < now:
            raise SimulationError(
                f"cannot schedule at {time_ns}ns, already at {now}ns"
            )
        seq = sim._seq
        sim._seq = seq + 1
        self.time = time_ns
        self._live_seq = seq
        if now < self._entry_time <= time_ns:
            return  # rides on the pending entry; _surfaced() pushes it then
        self._entry_time = time_ns
        self._entry_seq = seq
        sim._admit((time_ns, seq, self, None))

    def _surfaced(self) -> None:
        """The entry ``_entry_seq`` was popped superseded: give a live
        deadline that rode on it the entry its own arm would have pushed."""
        if self._live_seq >= 0:
            self._entry_time = self.time
            self._entry_seq = self._live_seq
            self._sim._admit((self.time, self._live_seq, self, None))
        else:
            self._entry_time = -1

    def schedule(self, delay_ns: int) -> None:
        """(Re-)arm ``delay_ns`` from now; supersedes any prior arm."""
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns}ns in the past")
        self.schedule_at(self._sim.now + delay_ns)

    def cancel(self) -> None:
        """Disarm. Safe to call at any time, including when not armed."""
        self._live_seq = -1

    @property
    def armed(self) -> bool:
        return self._live_seq >= 0


class Simulator:
    """The event calendar and simulated clock.

    Typical use::

        sim = Simulator()
        sim.schedule(ms(5), my_callback, arg1)
        sim.run(until=seconds(10))
    """

    def __init__(self) -> None:
        #: Current simulation time in nanoseconds; only ``step``/``run`` assign it.
        self.now = 0
        self._seq = 0
        self._heap: list[tuple] = []  # never reassigned: ``_admit`` is bound to it
        #: Places one ``(time, seq, fn, args)`` entry: the single admission
        #: point, a C call (a test may rebind it per instance to count).
        self._admit: Callable[[tuple], None] = partial(_heappush, self._heap)
        self._running = False
        self.events_processed = 0
        #: ``run()``'s one-entry list of a parked ``(seq, fn, args)`` hand-off.
        self._tail: list | tuple = _NO_SLOT

    # -- scheduling -----------------------------------------------------

    def schedule(self, delay_ns: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay_ns`` from now."""
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns}ns in the past")
        seq = self._seq
        self._seq = seq + 1
        self._admit((self.now + delay_ns, seq, fn, args))

    def schedule_at(self, time_ns: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute time ``time_ns``."""
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule at {time_ns}ns, already at {self.now}ns"
            )
        seq = self._seq
        self._seq = seq + 1
        self._admit((time_ns, seq, fn, args))

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at the current instant (after pending same-time events).

        Inside :meth:`run` the first such hand-off of an event is parked and
        called as soon as the event returns, if no calendar entry comes
        before it; else it is pushed under the ``(time, seq)`` it took. It
        counts in ``events_processed`` either way.
        """
        seq = self._seq
        self._seq = seq + 1
        tail = self._tail
        if tail:  # outside run(), or this event already parked one
            self._admit((self.now, seq, fn, args))
        else:
            tail.append((seq, fn, args))

    def timer(self, fn: Callable[..., Any], *args: Any) -> Timer:
        """Create a reusable soft-cancel :class:`Timer` for ``fn(*args)``.

        Allocate once per recurring deadline (RTO, delayed-ACK, pacer,
        process wake-up) and re-arm it for free ever after.
        """
        return Timer(self, fn, args)

    # -- introspection --------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of events still in the calendar (including cancelled ones)."""
        return len(self._heap)

    @property
    def pending_live(self) -> int:
        """Number of events still in the calendar, excluding cancelled and
        stale (re-armed) ones.

        O(n); intended for diagnostics, not the run loop.
        """
        return sum(
            1
            for _time, seq, fn, args in self._heap
            if args is not None
            or fn._live_seq == seq
            or (fn._live_seq >= 0 and fn._entry_seq == seq)  # ridden on
        )

    def peek_time(self) -> Optional[int]:
        """Time of the next live event, or None if the calendar is empty."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3] is None and entry[2]._live_seq != entry[1]:
                _heappop(heap)
                if entry[2]._entry_seq == entry[1]:
                    entry[2]._surfaced()
                continue
            return entry[0]
        return None

    def step(self) -> bool:
        """Run the next live event. Returns False if there was none."""
        heap = self._heap
        while heap:
            time_ns, seq, fn, args = _heappop(heap)
            if args is None:  # soft-cancellable: fn is the timer
                if fn._live_seq != seq:
                    if fn._entry_seq == seq:
                        fn._surfaced()
                    continue
                fn._live_seq = -1
                args = fn.args
                fn = fn.fn
            self.now = time_ns
            self.events_processed += 1
            fn(*args)
            return True
        return False

    def run(self, until: Optional[int] = None) -> None:
        """Run events until the calendar is empty or ``until`` is reached.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the calendar empties earlier.

        Each entry is popped once: stale soft-cancelled entries are skipped
        in the same pass, the one found past ``until`` is pushed back, and
        the event counter is folded in once on exit. After each event the
        loop calls the hand-off the event parked (:meth:`call_soon`) if it is
        the calendar's least entry: nothing in the heap is due at ``now``
        with a smaller ``seq`` (a stale entry counts, conservatively).
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        heap = self._heap
        pop = _heappop
        processed = 0
        self._tail = tail = []
        try:
            limit = _FOREVER if until is None else until
            while heap:
                entry = pop(heap)
                time_ns, seq, fn, args = entry
                if time_ns > limit:
                    _heappush(heap, entry)  # past ``until``: back where it was
                    break
                if args is None:  # soft-cancellable entry
                    if fn._live_seq != seq:
                        if fn._entry_seq == seq:
                            fn._surfaced()
                        continue
                    fn._live_seq = -1
                    args = fn.args
                    fn = fn.fn
                self.now = time_ns
                processed += 1
                fn(*args)
                while tail:
                    seq, fn, args = tail.pop()
                    if heap and heap[0][0] == time_ns and heap[0][1] < seq:
                        self._admit((time_ns, seq, fn, args))
                        break
                    processed += 1
                    fn(*args)
            if until is not None and until > self.now:
                self.now = until
        finally:
            if tail:  # an event raised with a hand-off parked
                self._admit((self.now, *tail.pop()))
            self._tail = _NO_SLOT
            self.events_processed += processed
            self._running = False
