"""Per-component event census: who schedules what, at thousands-of-flows scale.

ROADMAP item 1's scale work needs to answer "where do the events go?" before
and after an engine change: which component schedules the most events, how
many of them are soft-cancelled (re-armed) before firing, and — the churn
invariant — whether a departed flow ever schedules anything again.

:class:`CensusSimulator` is a drop-in :class:`~repro.sim.engine.Simulator`
subclass that attributes every calendar admission to a *component*
(the class name of the callback's bound ``self``) and, when the owner is
tagged with a ``census_flow`` attribute, to a flow. The multi-flow
experiment tags every per-flow component at build time when the census is
enabled (``profile_events=True`` / ``population --profile-events``).

Counters:

* ``scheduled`` — admissions, per component.
* ``fired`` — dispatched callbacks, per component.
* ``stale`` — soft-cancelled entries discarded when they reach the head of
  the heap, per component (a re-armed timer contributes one stale entry per
  re-arm; this is the census view of "cancelled").
* ``post_departure`` — admissions attributed to a flow *after*
  :meth:`CensusSimulator.mark_departed` was called for it. Flow churn's
  teardown invariant is that this stays empty; the population tests assert
  it.

The census changes no observable simulation behaviour: event order, clock,
and ``events_processed`` are identical to an uninstrumented run (pinned by
the census tests against golden fingerprints).
"""

from __future__ import annotations

from collections import Counter
from heapq import heappop as _heappop
from typing import Dict, Optional

from repro.errors import SimulationError
from repro.sim.engine import Simulator


def _callback_of(fn, args):
    """The user callback behind a calendar entry (unwraps soft-cancel
    owners, whose entry ``args`` is the None sentinel)."""
    if args is None:
        fn = fn.fn
    return fn


def component_of(fn) -> str:
    """Census attribution key for a callback: the class name of its bound
    ``self``, or the callable's qualified name for plain functions."""
    owner = getattr(fn, "__self__", None)
    if owner is not None:
        return type(owner).__name__
    return getattr(fn, "__qualname__", None) or repr(fn)


def flow_of(fn) -> Optional[int]:
    """Flow attribution: the ``census_flow`` tag on the callback's bound
    ``self``, if the experiment set one."""
    owner = getattr(fn, "__self__", None)
    if owner is None:
        return None
    return getattr(owner, "census_flow", None)


class CensusSimulator(Simulator):
    """A Simulator that attributes every event to component and flow."""

    def __init__(self) -> None:
        super().__init__()
        self.scheduled: Counter = Counter()
        self.fired: Counter = Counter()
        self.stale: Counter = Counter()
        self.scheduled_by_flow: Counter = Counter()
        #: ``(flow, component) -> count`` of admissions after departure.
        self.post_departure: Counter = Counter()
        self._departed: set = set()
        self._push = self._admit
        self._admit = self._count_and_admit

    # -- counting hooks --------------------------------------------------

    def _count_and_admit(self, entry):
        cb = _callback_of(entry[2], entry[3])
        self.scheduled[component_of(cb)] += 1
        flow = flow_of(cb)
        if flow is not None:
            self.scheduled_by_flow[flow] += 1
            if flow in self._departed:
                self.post_departure[(flow, component_of(cb))] += 1
        self._push(entry)

    def run(self, until=None):
        # The base engine's dispatch, with fired/stale counting. It parks no
        # hand-off (``_tail`` stays full), so every ``call_soon`` is admitted
        # and counted here: the census of a run is the eager calendar's.
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        heap = self._heap
        try:
            while heap:
                entry = heap[0]
                if until is not None and entry[0] > until:
                    break
                _heappop(heap)
                time_ns, seq, fn, args = entry
                if args is None:
                    if fn._live_seq != seq:
                        self.stale[component_of(fn.fn)] += 1
                        if fn._entry_seq == seq:
                            fn._surfaced()
                        continue
                    fn._live_seq = -1
                    args = fn.args
                    fn = fn.fn
                self.now = time_ns
                self.events_processed += 1
                self.fired[component_of(fn)] += 1
                fn(*args)
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False

    # -- departures ------------------------------------------------------

    def mark_departed(self, flow: int) -> None:
        """Record a flow's departure; admissions attributed to it from now
        on land in :attr:`post_departure` (the churn teardown invariant is
        that none do)."""
        self._departed.add(flow)

    @property
    def post_departure_events(self) -> int:
        """Total admissions attributed to already-departed flows."""
        return sum(self.post_departure.values())

    # -- reporting -------------------------------------------------------

    def report(self) -> Dict[str, object]:
        """Structured census: per-component rows sorted by scheduled count,
        plus totals, departures, and the post-departure violations."""
        components = sorted(
            set(self.scheduled) | set(self.fired) | set(self.stale),
            key=lambda c: (-self.scheduled[c], c),
        )
        return {
            "components": {
                c: {
                    "scheduled": self.scheduled[c],
                    "fired": self.fired[c],
                    "stale": self.stale[c],
                }
                for c in components
            },
            "totals": {
                "scheduled": sum(self.scheduled.values()),
                "fired": sum(self.fired.values()),
                "stale": sum(self.stale.values()),
                "flows_tagged": len(self.scheduled_by_flow),
                "departed": len(self._departed),
                "post_departure": self.post_departure_events,
            },
            "post_departure": {
                f"flow{flow}/{component}": count
                for (flow, component), count in sorted(self.post_departure.items())
            },
        }


def tag(obj, flow: int) -> None:
    """Attach the census flow tag to a component instance (no-op cost when
    the census is off because the experiment only calls this when it's on;
    ``__slots__`` classes without a tag slot are skipped silently)."""
    try:
        obj.census_flow = flow
    except AttributeError:
        pass
