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
* **bounded retries with exponential backoff** — failed attempts are retried
  up to ``retries`` times; a retry reuses the repetition's original derived
  seed, so a retried success is bit-identical (same ``fingerprint()``) to a
  first-attempt success;
* **pool-crash recovery with attribution** — ``BrokenProcessPool`` restarts
  the pool; when the executor cannot say which worker crashed, nobody is
  charged an attempt — every in-flight repetition becomes a *suspect* and is
  re-run one at a time, so the next crash unambiguously identifies its
  culprit and innocent collateral recovers at zero retry cost;
* **quarantine** — after ``quarantine_after`` *consecutive* final failures of
  the same configuration, its remaining repetitions fail fast as
  :class:`~repro.errors.QuarantinedError` instead of crash-looping the pool;
* **graceful degradation** — the supervisor always returns; failures are
  delivered to the caller as structured :class:`RepFailure` records, never
  raised (``KeyboardInterrupt``/``SystemExit`` still propagate so an operator
  can abort, and the pool's processes are killed on the way out).

Results are *validated* before they count as successes (``validate_fn``), so
a conservation violation surfaces as a named failure rather than a silently
wrong table; validation failures are deterministic and are not retried.
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

from repro.errors import (
    QuarantinedError,
    RepTimeoutError,
    ValidationError,
    WorkerCrashError,
)
from repro.framework.config import ExperimentConfig
from repro.framework.executors import Executor, make_executor

__all__ = [
    "RepFailure",
    "RepTask",
    "SupervisionPolicy",
    "Supervisor",
]

#: Cap stored tracebacks so a pathological repr cannot bloat a store.
_TRACEBACK_LIMIT_CHARS = 8_000


#: How long a new pool's workers may take to start before clocks start anyway.
WORKER_START_S = 30.0


@dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs for the supervision loop.

    ``timeout_s=None`` disables the watchdog (a repetition may run forever,
    as before). ``retries`` is the number of *re*-attempts, so every
    repetition runs at most ``retries + 1`` times. Backoff before attempt
    ``n+1`` is ``backoff_base_s * 2**(n-1)`` capped at ``backoff_max_s``.
    In flight at any moment: ``workers`` repetitions running and one staged
    (one alone, nothing staged, while a crash suspect is unresolved).
    """

    timeout_s: Optional[float] = None
    retries: int = 2
    backoff_base_s: float = 0.05
    backoff_max_s: float = 5.0
    quarantine_after: int = 3
    poll_interval_s: float = 0.05

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None to disable)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")

    @property
    def max_attempts(self) -> int:
        return self.retries + 1

    def backoff_s(self, failed_attempts: int) -> float:
        """Delay before the next attempt after ``failed_attempts`` failures."""
        if failed_attempts <= 0 or self.backoff_base_s <= 0:
            return 0.0
        return min(self.backoff_max_s, self.backoff_base_s * 2 ** (failed_attempts - 1))


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
    #: Monotonic time before which a backed-off retry must not be submitted.
    not_before: float = 0.0
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
        """In-process execution: retries and failure capture, no watchdog.

        A hung repetition cannot be interrupted from inside its own process,
        so ``timeout_s`` is only enforced on the pooled path; :meth:`run`
        comes here with a timeout set only under the ``inprocess`` backend.
        """
        for task in tasks:
            if task.name in self._quarantined:
                on_failure(task, self._quarantine_failure(task))
                continue
            while True:
                task.attempts += 1
                start = time.monotonic()
                try:
                    result = self.run_fn(task.config, task.seed)
                    if self.validate_fn is not None:
                        self.validate_fn(result)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:
                    task.elapsed_s += time.monotonic() - start
                    if self._should_retry(task, exc):
                        time.sleep(self.policy.backoff_s(task.attempts))
                        continue
                    on_failure(task, self._final_failure(task, exc))
                    break
                else:
                    task.elapsed_s += time.monotonic() - start
                    self._consecutive_failures[task.name] = 0
                    on_success(task, result)
                    break

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
                    # Everything runnable is backing off; sleep to the
                    # earliest retry moment.
                    pending = suspects if suspects else queue
                    if not pending:
                        continue
                    wake = min(t.not_before for t in pending)
                    time.sleep(max(wake - time.monotonic(), 0.001))
                    continue
                done, _ = futures_wait(
                    set(flights),
                    timeout=self.policy.poll_interval_s,
                    return_when=FIRST_COMPLETED,
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
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except Exception as exc:
                        self._attempt_failed(flight.task, exc, on_failure)
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
            self._attempt_failed(
                crashed[0].task,
                WorkerCrashError(
                    "process pool died while this repetition ran alone in it"
                ),
                on_failure,
            )
            return
        for flight in crashed:
            task = flight.task
            task.attempts -= 1
            task.suspect = True
            task.not_before = 0.0
            self._suspects.appendleft(task)

    def _fill(self, pool, workers, flights, on_failure):
        """Submit ready tasks until ``workers`` run and one more is staged;
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
        now = time.monotonic()
        self._start_clocks(flights, workers)
        if self._suspects or any(f.task.suspect for f in flights.values()):
            if flights or not self._suspects:
                return pool
            for _ in range(len(self._suspects)):
                task = self._suspects.popleft()
                if task.name in self._quarantined:
                    on_failure(task, self._quarantine_failure(task))
                    continue
                if task.not_before > now:
                    self._suspects.append(task)
                    continue
                pool, _ = self._launch(pool, workers, task, flights)
                break
            return pool
        deferred = []
        while self._queue and len(flights) < workers + 1:
            task = self._queue.popleft()
            if task.name in self._quarantined:
                on_failure(task, self._quarantine_failure(task))
                continue
            if task.not_before > now:
                deferred.append(task)
                continue
            pool, launched = self._launch(pool, workers, task, flights)
            if not launched and flights:
                # In-flight futures are dead too; the main loop's collection
                # pass sees their BrokenProcessPool results and runs the
                # full recovery path.
                break
        self._queue.extend(deferred)
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
            self._attempt_failed(
                flight.task,
                RepTimeoutError(
                    f"repetition exceeded the {self.policy.timeout_s:.1f}s wall-clock budget"
                ),
                on_failure,
            )
        for flight in flights.values():
            flight.task.attempts -= 1
            flight.task.elapsed_s += flight.ran_s(now)
            flight.task.not_before = 0.0
            (self._suspects if flight.task.suspect else self._queue).appendleft(flight.task)
        flights.clear()
        return self._restart_pool(pool, workers)

    def _restart_pool(self, pool, workers) -> ProcessPoolExecutor:
        self._kill_pool(pool)
        return self._make_pool(workers)

    def _make_pool(self, workers) -> ProcessPoolExecutor:
        """A pool whose workers are up (forked, ``run_fn``'s module imported)
        before any flight's clock starts. A warm-up that kills the pool
        leaves a cold one, so the crash is charged to the repetition."""
        pool = self.executor.make_pool(workers)
        # A call that does nothing with ``run_fn``: unpickling it imports its module.
        warm = [pool.submit(id, self.run_fn) for _ in range(workers)]
        deadline = time.monotonic() + WORKER_START_S
        try:
            for future in warm:
                error = future.exception(max(deadline - time.monotonic(), 0.0))
                if isinstance(error, BrokenProcessPool):
                    self._kill_pool(pool)
                    return self.executor.make_pool(workers)
        except TimeoutError:
            pass  # clocks start regardless
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

    def _should_retry(self, task: RepTask, exc: Exception) -> bool:
        if isinstance(exc, ValidationError):
            # The simulation is deterministic: a result that violates an
            # invariant will violate it again. Fail immediately.
            return False
        return task.attempts < self.policy.max_attempts and task.name not in self._quarantined

    def _attempt_failed(self, task, exc, on_failure) -> None:
        if self._should_retry(task, exc):
            task.not_before = time.monotonic() + self.policy.backoff_s(task.attempts)
            (self._suspects if task.suspect else self._queue).append(task)
        else:
            on_failure(task, self._final_failure(task, exc))

    def _final_failure(self, task: RepTask, exc: Exception) -> RepFailure:
        count = self._consecutive_failures.get(task.name, 0) + 1
        self._consecutive_failures[task.name] = count
        if count >= self.policy.quarantine_after:
            self._quarantined.add(task.name)
        tb = "".join(
            traceback_module.format_exception(type(exc), exc, exc.__traceback__)
        )
        return RepFailure(
            name=task.name,
            label=task.config.label if hasattr(task.config, "label") else task.name,
            rep=task.rep,
            seed=task.seed,
            error_type=type(exc).__name__,
            message=str(exc).splitlines()[0] if str(exc) else type(exc).__name__,
            traceback=tb[-_TRACEBACK_LIMIT_CHARS:],
            attempts=task.attempts,
            wall_time_s=task.elapsed_s,
            quarantined=task.name in self._quarantined,
        )

    def _quarantine_failure(self, task: RepTask) -> RepFailure:
        exc = QuarantinedError(
            f"configuration {task.name!r} was quarantined after "
            f"{self.policy.quarantine_after} consecutive failures"
        )
        return RepFailure(
            name=task.name,
            label=task.config.label if hasattr(task.config, "label") else task.name,
            rep=task.rep,
            seed=task.seed,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback="",
            attempts=task.attempts,
            wall_time_s=task.elapsed_s,
            quarantined=True,
        )
