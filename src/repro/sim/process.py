"""Event-loop processes.

A :class:`SimProcess` models a user-space program built around an event loop:
it sleeps until either a timer it armed expires or an external event (packet
arrival) wakes it, then runs its ``on_wakeup`` handler. Timer arming goes
through the process's :class:`~repro.sim.clock.TimerModel`, so granularity and
scheduling jitter apply to *timer* wake-ups, while external wake-ups (epoll on
a ready socket) only pay the scheduling jitter.

Timer arming happens tens of thousands of times per run, so the timer-model
math (grid rounding, overhead, log-normal jitter) is unpacked into instance
fields at construction and computed inline in :meth:`arm_timer` /
:meth:`wake_now` — same arithmetic and the same RNG draw sequence as
:meth:`TimerModel.fire_time`, without the call chain.
"""

from __future__ import annotations

import random
from math import exp as _exp
from typing import Callable, Optional

from repro.sim.clock import TimerModel, PERFECT_TIMER
from repro.sim.engine import Simulator

#: Sentinel deadline installed by :meth:`SimProcess.detach`: every real
#: deadline compares >= it, so ``arm_timer`` early-exits without scheduling.
_DETACHED = -(1 << 62)


class SimProcess:
    """Base class for simulated event-loop programs.

    Subclasses implement :meth:`on_wakeup`. The process guarantees at most one
    pending wake-up at a time: re-arming with an earlier deadline replaces the
    pending one; re-arming with a later deadline is ignored (the loop will
    re-evaluate and re-arm when it runs).

    The wake-up is a single reusable soft-cancel
    :class:`~repro.sim.engine.Timer`, so the tens of thousands of re-arms a
    run performs allocate nothing and never search the calendar.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        timer_model: TimerModel = PERFECT_TIMER,
        rng: Optional[random.Random] = None,
    ):
        self.sim: Simulator = sim
        self.name: str = name
        self.timer_model: TimerModel = timer_model
        self.rng: random.Random = rng or random.Random(0)
        self._timer = sim.timer(self._fire)
        self._pending_deadline: Optional[int] = None
        self.wakeups: int = 0
        # Timer-model parameters unpacked for the inline fire-time math.
        self._gran: int = timer_model.granularity_ns
        self._overhead: int = timer_model.overhead_ns
        self._jitter_median: int = timer_model.jitter.median_ns
        self._jitter_sigma: float = timer_model.jitter.sigma
        self._gauss: Callable[[float, float], float] = self.rng.gauss

    # -- arming ---------------------------------------------------------

    def arm_timer(self, deadline_ns: int) -> None:
        """Ask to be woken at ``deadline_ns`` (modulo timer imprecision)."""
        pending_deadline = self._pending_deadline
        if pending_deadline is not None and deadline_ns >= pending_deadline:
            return
        sim = self.sim
        now = sim.now
        # Inline TimerModel.fire_time: clamp, grid-round up, add overhead
        # and one jitter draw. Overhead and jitter are non-negative, so the
        # result never lands before `now`.
        t = deadline_ns if deadline_ns > now else now
        gran = self._gran
        if gran > 1:
            t = -(-t // gran) * gran
        median = self._jitter_median
        if median > 0:
            sigma = self._jitter_sigma
            if sigma > 0.0:
                median = round(median * _exp(self._gauss(0.0, sigma)))
            t += median
        t += self._overhead
        self._pending_deadline = deadline_ns
        self._timer.schedule_at(t)

    def wake_now(self) -> None:
        """External wake-up (e.g. socket became readable).

        Pays scheduling jitter but not timer granularity, and supersedes any
        pending timer.
        """
        if self._pending_deadline == _DETACHED:
            return
        sim = self.sim
        now = sim.now
        t = now
        median = self._jitter_median
        if median > 0:
            sigma = self._jitter_sigma
            if sigma > 0.0:
                median = round(median * _exp(self._gauss(0.0, sigma)))
            t += median
        self._pending_deadline = now
        self._timer.schedule_at(t)

    def cancel_timer(self) -> None:
        self._timer.cancel()
        self._pending_deadline = None

    def detach(self) -> None:
        """Permanently silence this process (flow departure).

        Cancels the pending wake-up and pins the deadline to a sentinel
        every real deadline compares later than, so subsequent
        ``arm_timer``/``wake_now`` calls from straggler packets or stale
        callbacks schedule nothing.
        """
        self._timer.cancel()
        self._pending_deadline = _DETACHED

    @property
    def timer_armed(self) -> bool:
        return self._timer.armed

    # -- dispatch -------------------------------------------------------

    def _fire(self) -> None:
        self._pending_deadline = None
        self.wakeups += 1
        self.on_wakeup()

    def on_wakeup(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
