"""Supervised execution of repetitions over a process pool.

``ProcessPoolExecutor`` alone is brittle for multi-hour grids: one worker
segfault breaks the pool and ``as_completed`` raises away every in-flight
repetition; one hung simulation stalls the whole sweep forever. This module
wraps the pool with the supervision loop a long-running measurement fleet
needs:

* **bounded in-flight work** — at most ``workers`` repetitions run at a
  time, plus one *staged* in the pool's call queue so the worker that lands
  next finds it without a round trip through this process; a pool crash can
  only lose those, and a repetition's wall-clock deadline starts when a
  landing promotes it out of the staged slot, never while it waits there
  or while a new pool's workers start up (:meth:`Supervisor._make_pool`);
* **watchdog timeouts** — a repetition that exceeds ``timeout_s`` is killed
  (the pool's worker processes are terminated and the pool restarted, since a
  hung worker cannot be cancelled individually); innocent repetitions that
  were in flight are requeued *without* being charged an attempt;
* **retries of what the host did, only** — a repetition is a pure function
  of ``(config, seed)``, so an exception it raises (or a result
  ``validate_fn`` rejects) would recur on every retry: it is final at its
  first attempt. A dead worker and a timeout depend on the host; they are
  retried at once, up to ``retries`` times, with the repetition's original
  derived seed, so a retried success is bit-identical (same
  ``fingerprint()``) to a first-attempt success;
* **pool-crash recovery with attribution** — ``BrokenProcessPool`` restarts
  the pool; when the executor cannot say which worker crashed, nobody is
  charged an attempt — every in-flight repetition becomes a *suspect* and is
  re-run one at a time, so the next crash unambiguously identifies its
  culprit and innocent collateral recovers at zero retry cost;
* **quarantine** — after :data:`QUARANTINE_AFTER` *consecutive* final
  failures of the same configuration, its remaining repetitions fail fast as
  :class:`~repro.errors.QuarantinedError` instead of crash-looping the pool;
* **graceful degradation** — the supervisor always returns; failures are
  delivered to the caller as structured :class:`RepFailure` records, never
  raised (``KeyboardInterrupt``/``SystemExit`` still propagate so an operator
  can abort, and the pool's processes are killed on the way out).
"""

from __future__ import annotations

import time
import traceback as traceback_module
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.errors import QuarantinedError, RepTimeoutError, WorkerCrashError
from repro.framework.config import ExperimentConfig
from repro.framework.executors import WORKER_START_S, Executor, make_executor

__all__ = [
    "RepFailure",
    "RepTask",
    "SupervisionPolicy",
    "Supervisor",
]

#: Cap stored tracebacks so a pathological repr cannot bloat a store.
_TRACEBACK_LIMIT_CHARS = 8_000

#: How often the pooled loop wakes, while nothing lands, to check deadlines.
POLL_INTERVAL_S = 0.05

#: Consecutive final failures of one configuration that quarantine it.
QUARANTINE_AFTER = 3


@dataclass(frozen=True)
class SupervisionPolicy:
    """What ``--timeout`` and ``--retries`` set.

    ``timeout_s=None`` disables the watchdog (a repetition may run forever).
    ``retries`` is the number of *re*-attempts after a dead worker or a
    timeout, so such a repetition runs at most ``retries + 1`` times.
    """

    timeout_s: Optional[float] = None
    retries: int = 2

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None to disable)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")


@dataclass
class RepFailure:
    """One repetition that could not produce a valid result.

    Serializable (``as_dict``/``from_dict``) so failures survive in JSON
    artifacts; a result store records them too, and a resumed run carries
    them forward verbatim.
    """

    name: str
    label: str
    rep: int
    seed: int
    error_type: str
    message: str
    traceback: str
    attempts: int
    wall_time_s: float
    quarantined: bool = False

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RepFailure":
        return cls(**{k: data[k] for k in cls.__dataclass_fields__ if k in data})

    def describe(self) -> str:
        note = " [quarantined]" if self.quarantined else ""
        return (
            f"{self.name} rep {self.rep}: {self.error_type}: {self.message} "
            f"(after {self.attempts} attempt(s), {self.wall_time_s:.2f}s){note}"
        )


@dataclass
class RepTask:
    """One (config, repetition) unit of supervised work."""

    name: str
    config: ExperimentConfig
    rep: int
    seed: int
    attempts: int = 0
    #: Accumulated wall time across attempts (including timed-out ones).
    elapsed_s: float = 0.0
    #: True while this task is a crash suspect: it was in flight when the
    #: pool died ambiguously and must be re-run alone to attribute the crash.
    suspect: bool = False


@dataclass
class _Flight:
    task: RepTask
    #: Both ``None`` while the flight is staged behind ``workers`` running
    #: ones; stamped when a landing promotes it (:meth:`Supervisor._fill`).
    started: Optional[float] = None
    deadline: Optional[float] = None

    def ran_s(self, now: float) -> float:
        return now - self.started if self.started is not None else 0.0


class Supervisor:
    """Runs :class:`RepTask` units under a :class:`SupervisionPolicy`.

    ``run_fn(config, seed)`` computes one repetition (defaults to the sweep's
    worker function at the call site; tests substitute crashing/hanging
    stand-ins). ``validate_fn(result)`` may raise
    :class:`~repro.errors.ValidationError` to reject a structurally broken
    result. Outcomes are delivered via ``on_success(task, result)`` and
    ``on_failure(task, failure)`` callbacks, in completion order (a pooled
    wave's successes once the workers it freed have been refilled).

    ``executor`` selects the execution backend
    (:mod:`repro.framework.executors`): a serial backend routes everything
    through the in-process path regardless of ``workers``; pooled backends
    only differ in how worker processes are created — the supervision loop
    (timeouts, retries, crash attribution, quarantine) is backend-agnostic.
    """

    def __init__(
        self,
        policy: SupervisionPolicy,
        run_fn: Callable[[ExperimentConfig, int], Any],
        validate_fn: Optional[Callable[[Any], None]] = None,
        executor: Optional[Executor] = None,
    ):
        self.policy = policy
        self.run_fn = run_fn
        self.validate_fn = validate_fn
        self.executor = make_executor(executor)
        self._consecutive_failures: Dict[str, int] = {}
        self._quarantined: set = set()
        self._queue: deque = deque()
        self._suspects: deque = deque()

    # -- public entry ------------------------------------------------------

    def run(
        self,
        tasks: List[RepTask],
        workers: int,
        on_success: Callable[[RepTask, Any], None],
        on_failure: Callable[[RepTask, RepFailure], None],
    ) -> bool:
        """Run ``tasks`` to completion; True if a process pool ran them."""
        self._consecutive_failures = {}
        self._quarantined = set()
        self._queue = deque()
        self._suspects = deque()
        # Small workloads collapse to the serial path only when no timeout is
        # set, because the serial path has no watchdog: a repetition that may
        # be killed needs a worker process.
        if self.executor.serial or (
            self.policy.timeout_s is None and (workers <= 1 or len(tasks) <= 1)
        ):
            self._run_serial(tasks, on_success, on_failure)
            return False
        self._run_pool(tasks, max(workers, 1), on_success, on_failure)
        return True

    # -- serial path -------------------------------------------------------

    def _run_serial(self, tasks, on_success, on_failure) -> None:
        """In-process, one attempt each: here a repetition can neither lose
        its worker nor be timed out (it cannot be interrupted from inside its
        own process, so :meth:`run` comes here with a timeout set only under
        the ``inprocess`` backend), and whatever it raises is final."""
        for task in tasks:
            if task.name in self._quarantined:
                on_failure(task, self._failure(task))
                continue
            task.attempts += 1
            start = time.monotonic()
            try:
                result = self.run_fn(task.config, task.seed)
                if self.validate_fn is not None:
                    self.validate_fn(result)
            except Exception as exc:
                task.elapsed_s += time.monotonic() - start
                on_failure(task, self._failure(task, exc))
            else:
                task.elapsed_s += time.monotonic() - start
                self._consecutive_failures[task.name] = 0
                on_success(task, result)

    # -- pooled path -------------------------------------------------------

    def _run_pool(self, tasks, workers, on_success, on_failure) -> None:
        queue = self._queue = deque(tasks)
        suspects = self._suspects = deque()
        pool = self._make_pool(workers)
        flights: Dict[Any, _Flight] = {}
        landed: List[tuple] = []
        try:
            while queue or suspects or flights or landed:
                # Decide, refill, then settle: everything that can change
                # what may be launched was decided as the wave was collected,
                # so idle workers are fed before ``on_success`` spends
                # milliseconds per result on fingerprint, cache and store.
                pool = self._fill(pool, workers, flights, on_failure)
                for task, result in landed:
                    on_success(task, result)
                landed.clear()
                if not flights:
                    continue  # what was left to launch, if anything, was quarantined
                done, _ = futures_wait(
                    set(flights), timeout=POLL_INTERVAL_S, return_when=FIRST_COMPLETED
                )
                crashed: List[_Flight] = []
                for future in done:
                    flight = flights.pop(future)
                    flight.task.elapsed_s += flight.ran_s(time.monotonic())
                    try:
                        result = future.result()
                        if self.validate_fn is not None:
                            self.validate_fn(result)
                    except BrokenProcessPool:
                        crashed.append(flight)
                    except Exception as exc:
                        on_failure(flight.task, self._failure(flight.task, exc))
                    else:
                        flight.task.suspect = False
                        self._consecutive_failures[flight.task.name] = 0
                        landed.append((flight.task, result))
                if crashed:
                    # Every other in-flight future died with the pool too,
                    # the staged one included: a worker may have picked it up
                    # before this process saw the landing that freed it.
                    now = time.monotonic()
                    for flight in flights.values():
                        flight.task.elapsed_s += flight.ran_s(now)
                        crashed.append(flight)
                    flights.clear()
                    self._absorb_crash(crashed, on_failure)
                    pool = self._restart_pool(pool, workers)
                    continue
                pool = self._reap_timeouts(pool, workers, flights, on_failure)
        finally:
            self._kill_pool(pool)

    def _absorb_crash(self, crashed: List[_Flight], on_failure) -> None:
        """Attribute a dead pool to its culprit.

        A worker that dies (segfault, OOM kill, ``os._exit``) takes the whole
        pool down, and the executor cannot report which task the dead worker
        was running. If exactly one repetition was in flight the attribution
        is unambiguous: it is charged a failed attempt. Otherwise nobody is
        charged — every in-flight repetition becomes a *suspect* and is
        re-run one at a time (see :meth:`_fill`), so the next crash
        identifies its culprit and innocent collateral loses no retry budget.
        """
        if len(crashed) == 1:
            self._host_failed(
                crashed[0].task,
                WorkerCrashError(
                    "process pool died while this repetition ran alone in it"
                ),
                on_failure,
            )
            return
        for flight in crashed:
            flight.task.attempts -= 1
            flight.task.suspect = True
            self._suspects.appendleft(flight.task)

    def _fill(self, pool, workers, flights, on_failure):
        """Submit queued tasks until ``workers`` run and one more is staged;
        fail fast quarantined ones.

        A flight is staged (no clock, no deadline) when ``workers`` others
        already run, and is promoted (:meth:`_start_clocks`) once a landing
        has left a worker for it. The landing is seen late, never early, so a
        repetition is never killed before ``timeout_s`` of its own run time.

        While any crash suspect is unresolved, exactly one repetition flies
        at a time, nothing staged, so a repeat crash is unambiguous
        (:meth:`_absorb_crash`); full parallelism resumes once the suspects
        are cleared.
        """
        self._start_clocks(flights, workers)
        alone = self._suspects or any(f.task.suspect for f in flights.values())
        pending, room = (self._suspects, 1) if alone else (self._queue, workers + 1)
        while pending and len(flights) < room:
            task = pending.popleft()
            if task.name in self._quarantined:
                on_failure(task, self._failure(task))
                continue
            pool, launched = self._launch(pool, workers, task, flights)
            if not launched and flights:
                # In-flight futures are dead too; the main loop's collection
                # pass sees their BrokenProcessPool results and runs the
                # full recovery path.
                break
        return pool

    def _launch(self, pool, workers, task, flights):
        """Charge an attempt and submit; handle a pool that died while idle."""
        task.attempts += 1
        try:
            future = pool.submit(self.run_fn, task.config, task.seed)
        except BrokenProcessPool:
            # The pool died between collections; don't charge the task.
            task.attempts -= 1
            (self._suspects if task.suspect else self._queue).appendleft(task)
            if flights:
                return pool, False
            return self._restart_pool(pool, workers), False
        flights[future] = _Flight(task=task)
        self._start_clocks(flights, workers)
        return pool, True

    def _start_clocks(self, flights, workers) -> None:
        """With at most ``workers`` flights in the air none is staged (any
        more): stamp those that have no clock yet."""
        if len(flights) > workers:
            return
        now = time.monotonic()
        for flight in flights.values():
            if flight.started is None:
                flight.started = now
                if self.policy.timeout_s is not None:
                    flight.deadline = now + self.policy.timeout_s

    def _reap_timeouts(self, pool, workers, flights, on_failure):
        """Kill the pool if any flight blew its deadline; requeue innocents."""
        if self.policy.timeout_s is None or not flights:
            return pool
        now = time.monotonic()
        expired = [f for f, flight in flights.items() if flight.deadline and now >= flight.deadline]
        if not expired:
            return pool
        # A hung worker cannot be cancelled individually, so the whole pool
        # is torn down. Expired flights are charged a timed-out attempt;
        # the rest, staged or running, were innocent and are requeued uncharged.
        for future in expired:
            flight = flights.pop(future)
            flight.task.elapsed_s += flight.ran_s(now)
            self._host_failed(
                flight.task,
                RepTimeoutError(
                    f"repetition exceeded the {self.policy.timeout_s:.1f}s wall-clock budget"
                ),
                on_failure,
            )
        for flight in flights.values():
            flight.task.attempts -= 1
            flight.task.elapsed_s += flight.ran_s(now)
            (self._suspects if flight.task.suspect else self._queue).appendleft(flight.task)
        flights.clear()
        return self._restart_pool(pool, workers)

    def _restart_pool(self, pool, workers) -> ProcessPoolExecutor:
        self._kill_pool(pool)
        return self._make_pool(workers)

    def _make_pool(self, workers) -> ProcessPoolExecutor:
        """A pool whose ``workers`` workers have all started and imported
        ``run_fn``'s module before any flight's clock starts.

        Each worker unpickles ``run_fn`` on start and then waits for the
        others (:meth:`~repro.framework.executors.Executor.make_pool`), so
        none takes a call before all are up, and each of the ``workers``
        no-op calls below finds no idle worker and has the pool start one
        more. A warm-up that breaks the pool or outlasts
        :data:`WORKER_START_S` leaves a cold one, so a crash on import is
        charged to the repetition."""
        pool = self.executor.make_pool(workers, self.run_fn)
        warm = [pool.submit(id, None) for _ in range(workers)]
        deadline = time.monotonic() + WORKER_START_S
        try:
            for future in warm:
                future.result(max(deadline - time.monotonic(), 0.0))
        except (BrokenProcessPool, TimeoutError):
            self._kill_pool(pool)
            return self.executor.make_pool(workers)
        return pool

    @staticmethod
    def _kill_pool(pool: Optional[ProcessPoolExecutor]) -> None:
        """Terminate worker processes (hung ones never exit on their own)."""
        if pool is None:
            return
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already-dead workers
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    # -- outcome bookkeeping ----------------------------------------------

    def _host_failed(self, task, exc, on_failure) -> None:
        """A dead worker or a timeout: the host's doing, not the repetition's,
        so it runs again at once, with its seed, while retries are left."""
        if task.attempts <= self.policy.retries and task.name not in self._quarantined:
            (self._suspects if task.suspect else self._queue).appendleft(task)
        else:
            on_failure(task, self._failure(task, exc))

    def _failure(self, task: RepTask, exc: Optional[Exception] = None) -> RepFailure:
        """``task``'s final record: ``exc`` ended it (and counts towards its
        configuration's quarantine), or, without one, that configuration
        is quarantined already."""
        if exc is None:
            exc, tb = QuarantinedError(
                f"configuration {task.name!r} was quarantined after "
                f"{QUARANTINE_AFTER} consecutive failures"
            ), ""
        else:
            count = self._consecutive_failures.get(task.name, 0) + 1
            self._consecutive_failures[task.name] = count
            if count >= QUARANTINE_AFTER:
                self._quarantined.add(task.name)
            tb = "".join(traceback_module.format_exception(exc))[-_TRACEBACK_LIMIT_CHARS:]
        return RepFailure(
            name=task.name,
            label=task.config.label if hasattr(task.config, "label") else task.name,
            rep=task.rep,
            seed=task.seed,
            error_type=type(exc).__name__,
            message=str(exc).splitlines()[0] if str(exc) else type(exc).__name__,
            traceback=tb,
            attempts=task.attempts,
            wall_time_s=task.elapsed_s,
            quarantined=task.name in self._quarantined,
        )
