"""Supervised execution: crashes, hangs, retries, quarantine, degradation.

The fault stand-ins below are module-level so the process pool can pickle
them by reference; ``FaultConfig.marker`` points cross-process state at a
per-test temporary directory.
"""

import os
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.errors import ValidationError
from repro.framework import supervision
from repro.framework.executors import Executor, make_executor
from repro.framework.supervision import (
    RepFailure,
    RepTask,
    SupervisionPolicy,
    Supervisor,
)
from tests.conftest import LOCAL_POOLS

FAST = dict(backoff_base_s=0.0, poll_interval_s=0.02)


@dataclass(frozen=True)
class FaultConfig:
    """Stand-in for ExperimentConfig: picklable, labels itself."""

    mode: str = "ok"
    marker: str = ""

    @property
    def label(self) -> str:
        return f"fault/{self.mode}"


def _marker(cfg: FaultConfig, seed: int) -> Path:
    return Path(cfg.marker) / f"seen-{cfg.mode}-{seed}"


def _stamp_attempt(cfg: FaultConfig, seed: int) -> int:
    """Count executions of this (config, seed) across processes."""
    base = Path(cfg.marker)
    count = len(list(base.glob(f"run-{cfg.mode}-{seed}-*"))) + 1
    (base / f"run-{cfg.mode}-{seed}-{count}-{os.getpid()}-{time.monotonic_ns()}").touch()
    return count


def fault_run(cfg: FaultConfig, seed: int):
    if cfg.mode == "ok":
        return ("ok", seed)
    if cfg.mode == "boom":
        _stamp_attempt(cfg, seed)
        raise ValueError(f"boom for seed {seed}")
    if cfg.mode == "crash":
        os._exit(17)
    if cfg.mode == "hang":
        time.sleep(60)
        return ("hung-through", seed)
    if cfg.mode == "flaky":
        if not _marker(cfg, seed).exists():
            _marker(cfg, seed).touch()
            raise RuntimeError("transient failure")
        return ("ok-after-retry", seed)
    if cfg.mode == "crash-once":
        if not _marker(cfg, seed).exists():
            _marker(cfg, seed).touch()
            os._exit(17)
        return ("ok-after-crash", seed)
    raise AssertionError(f"unknown mode {cfg.mode}")


def _tasks(cfg, count):
    return [RepTask(name=cfg.label, config=cfg, rep=i, seed=1000 + i) for i in range(count)]


def _collect(supervisor, tasks, workers):
    successes, failures = {}, {}

    def on_success(task, result):
        successes[(task.name, task.rep)] = (task, result)

    def on_failure(task, failure):
        failures[(task.name, task.rep)] = failure

    supervisor.run(tasks, workers, on_success, on_failure)
    return successes, failures


class TestPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = SupervisionPolicy(backoff_base_s=0.1, backoff_max_s=0.5)
        assert policy.backoff_s(0) == 0.0
        assert policy.backoff_s(1) == pytest.approx(0.1)
        assert policy.backoff_s(2) == pytest.approx(0.2)
        assert policy.backoff_s(10) == pytest.approx(0.5)
        assert policy.max_attempts == 3

    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            SupervisionPolicy(timeout_s=0)
        with pytest.raises(ValueError):
            SupervisionPolicy(retries=-1)
        with pytest.raises(ValueError):
            SupervisionPolicy(quarantine_after=0)

    def test_backoff_schedule_is_derived_not_random(self):
        # Retry delays are a pure function of (policy, failed-attempt count):
        # no wall clock, no RNG — so a campaign's retry timing is replayable
        # and two supervisors with the same policy behave identically.
        policy = SupervisionPolicy(backoff_base_s=0.05, backoff_max_s=5.0)
        schedule = [policy.backoff_s(n) for n in range(1, 12)]
        assert schedule == [policy.backoff_s(n) for n in range(1, 12)]
        assert schedule == [min(5.0, 0.05 * 2 ** (n - 1)) for n in range(1, 12)]
        twin = SupervisionPolicy(backoff_base_s=0.05, backoff_max_s=5.0)
        assert schedule == [twin.backoff_s(n) for n in range(1, 12)]


class TestRepFailure:
    def test_round_trips_through_dict(self):
        failure = RepFailure(
            name="x", label="x/y", rep=3, seed=42, error_type="ValueError",
            message="boom", traceback="tb", attempts=2, wall_time_s=1.5,
            quarantined=True,
        )
        assert RepFailure.from_dict(failure.as_dict()) == failure
        # JSON artifacts written before the multi-host
        # backend was removed carry a "host" key; they must still load.
        assert RepFailure.from_dict({**failure.as_dict(), "host": "node1"}) == failure

    def test_describe_names_the_error(self):
        failure = RepFailure(
            name="x", label="x", rep=0, seed=1, error_type="RepTimeoutError",
            message="too slow", traceback="", attempts=3, wall_time_s=9.0,
        )
        assert "RepTimeoutError" in failure.describe()
        assert "3 attempt" in failure.describe()


class TestSerialSupervision:
    def test_deterministic_error_is_retried_then_recorded(self, tmp_path):
        cfg = FaultConfig(mode="boom", marker=str(tmp_path))
        supervisor = Supervisor(SupervisionPolicy(retries=2, **FAST), run_fn=fault_run)
        successes, failures = _collect(supervisor, _tasks(cfg, 1), workers=1)
        assert not successes
        failure = failures[(cfg.label, 0)]
        assert failure.error_type == "ValueError"
        assert failure.attempts == 3
        assert "boom for seed 1000" in failure.message
        assert "ValueError" in failure.traceback
        assert len(list(tmp_path.glob("run-*"))) == 3  # really ran 3 times

    def test_flaky_task_recovers_with_same_seed(self, tmp_path):
        cfg = FaultConfig(mode="flaky", marker=str(tmp_path))
        supervisor = Supervisor(SupervisionPolicy(retries=2, **FAST), run_fn=fault_run)
        successes, failures = _collect(supervisor, _tasks(cfg, 1), workers=1)
        assert not failures
        task, result = successes[(cfg.label, 0)]
        assert result == ("ok-after-retry", 1000)  # retry reused the seed
        assert task.attempts == 2

    def test_quarantine_skips_remaining_reps(self, tmp_path):
        cfg = FaultConfig(mode="boom", marker=str(tmp_path))
        supervisor = Supervisor(
            SupervisionPolicy(retries=0, quarantine_after=2, **FAST), run_fn=fault_run
        )
        successes, failures = _collect(supervisor, _tasks(cfg, 5), workers=1)
        assert not successes
        assert len(failures) == 5
        assert failures[(cfg.label, 0)].error_type == "ValueError"
        assert failures[(cfg.label, 1)].error_type == "ValueError"
        assert failures[(cfg.label, 1)].quarantined  # tripped the threshold
        for rep in (2, 3, 4):
            assert failures[(cfg.label, rep)].error_type == "QuarantinedError"
            assert failures[(cfg.label, rep)].quarantined
        # Only the first two reps ever executed.
        assert len(list(tmp_path.glob("run-*"))) == 2

    def test_validation_failure_is_not_retried(self, tmp_path):
        cfg = FaultConfig(mode="ok", marker=str(tmp_path))

        def reject(result):
            raise ValidationError("rate-ceiling: impossible goodput")

        supervisor = Supervisor(
            SupervisionPolicy(retries=3, **FAST), run_fn=fault_run, validate_fn=reject
        )
        successes, failures = _collect(supervisor, _tasks(cfg, 1), workers=1)
        assert not successes
        failure = failures[(cfg.label, 0)]
        assert failure.error_type == "ValidationError"
        assert failure.attempts == 1  # deterministic: no retry


class TestPooledSupervision:
    def test_worker_exception_keeps_surviving_results(self, tmp_path):
        good = FaultConfig(mode="ok", marker=str(tmp_path))
        bad = FaultConfig(mode="boom", marker=str(tmp_path))
        tasks = _tasks(good, 3) + _tasks(bad, 1)
        supervisor = Supervisor(SupervisionPolicy(retries=1, **FAST), run_fn=fault_run)
        successes, failures = _collect(supervisor, tasks, workers=2)
        assert len(successes) == 3
        assert failures[(bad.label, 0)].error_type == "ValueError"
        assert failures[(bad.label, 0)].attempts == 2

    def test_worker_crash_restarts_pool_and_keeps_survivors(self, tmp_path):
        good = FaultConfig(mode="ok", marker=str(tmp_path))
        poison = FaultConfig(mode="crash", marker=str(tmp_path))
        tasks = _tasks(good, 4) + _tasks(poison, 1)
        supervisor = Supervisor(SupervisionPolicy(retries=1, **FAST), run_fn=fault_run)
        successes, failures = _collect(supervisor, tasks, workers=2)
        assert len(successes) == 4  # every non-poison rep survived the crash
        failure = failures[(poison.label, 0)]
        assert failure.error_type == "WorkerCrashError"
        assert "pool died" in failure.message

    def test_crash_once_recovers_bit_identically(self, tmp_path):
        cfg = FaultConfig(mode="crash-once", marker=str(tmp_path))
        supervisor = Supervisor(SupervisionPolicy(retries=2, **FAST), run_fn=fault_run)
        successes, failures = _collect(supervisor, _tasks(cfg, 2), workers=2)
        assert not failures
        for rep in (0, 1):
            task, result = successes[(cfg.label, rep)]
            assert result == ("ok-after-crash", 1000 + rep)  # same derived seed

    def test_hang_is_killed_by_the_watchdog(self, tmp_path):
        good = FaultConfig(mode="ok", marker=str(tmp_path))
        stuck = FaultConfig(mode="hang", marker=str(tmp_path))
        tasks = _tasks(stuck, 1) + _tasks(good, 3)
        supervisor = Supervisor(
            SupervisionPolicy(timeout_s=0.4, retries=0, **FAST), run_fn=fault_run
        )
        start = time.monotonic()
        successes, failures = _collect(supervisor, tasks, workers=2)
        assert time.monotonic() - start < 30  # nowhere near the 60s sleep
        assert len(successes) == 3
        failure = failures[(stuck.label, 0)]
        assert failure.error_type == "RepTimeoutError"
        assert failure.attempts == 1
        assert failure.wall_time_s >= 0.4

    def test_hang_retry_charges_only_expired_task(self, tmp_path):
        # The hung rep is retried (retries=1) and must time out twice; the
        # innocents that shared the pool still complete exactly once each.
        good = FaultConfig(mode="ok", marker=str(tmp_path))
        stuck = FaultConfig(mode="hang", marker=str(tmp_path))
        tasks = _tasks(stuck, 1) + _tasks(good, 2)
        supervisor = Supervisor(
            SupervisionPolicy(timeout_s=0.3, retries=1, **FAST), run_fn=fault_run
        )
        successes, failures = _collect(supervisor, tasks, workers=2)
        assert len(successes) == 2
        assert failures[(stuck.label, 0)].attempts == 2

    def test_timeout_is_enforced_for_one_task_on_one_worker(self, tmp_path):
        # One worker, one task: without a timeout this collapses to the
        # serial path, which has no watchdog. With one, it must not.
        stuck = FaultConfig(mode="hang", marker=str(tmp_path))
        supervisor = Supervisor(
            SupervisionPolicy(timeout_s=0.4, retries=0, **FAST),
            run_fn=fault_run,
            executor=make_executor("forkserver"),
        )
        start = time.monotonic()
        successes, failures = _collect(supervisor, _tasks(stuck, 1), workers=1)
        assert time.monotonic() - start < 30  # nowhere near the 60s sleep
        assert not successes
        assert failures[(stuck.label, 0)].error_type == "RepTimeoutError"


class _HandPool:
    """A pool whose futures the test completes by hand."""

    def __init__(self):
        self.calls = []  # (future, config, seed), in submission order

    def submit(self, fn, config, seed):
        future = Future()
        self.calls.append((future, config, seed))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _HandExecutor(Executor):
    name = "by-hand"

    def __init__(self):
        self.pools = []

    def make_pool(self, workers):
        self.pools.append(_HandPool())
        return self.pools[-1]

    def future(self, seed):
        """The newest future submitted for ``seed``."""
        return [f for pool in self.pools for f, _, s in pool.calls if s == seed][-1]

    @property
    def seeds(self):
        return [seed for pool in self.pools for _, _, seed in pool.calls]


class _Scripted:
    """One-threaded drive of ``Supervisor._run_pool``: the supervisor's clock
    and its ``futures_wait`` are replaced, and every wait first resumes the
    test's ``script`` generator, which lands futures and moves the clock.
    ``in_flight`` records how many futures each wait was given."""

    def __init__(self, monkeypatch, policy, workers, validate_fn=None):
        self.now = 100.0
        self.executor = _HandExecutor()
        self.workers = workers
        self.in_flight = []
        self.events = []  # ("ok" | "failed", seed, futures submitted so far)
        self.failures = {}
        self.supervisor = Supervisor(
            policy, run_fn=fault_run, validate_fn=validate_fn, executor=self.executor
        )
        clock = SimpleNamespace(monotonic=lambda: self.now, sleep=self._sleep)
        monkeypatch.setattr(supervision, "time", clock)
        monkeypatch.setattr(supervision, "futures_wait", self._wait)

    def _sleep(self, seconds):
        self.now += seconds

    def _wait(self, futures, timeout=None, return_when=None):
        self.in_flight.append((len(futures), self.unresolved_suspects()))
        next(self._script)  # StopIteration: the script ended with work in flight
        return {f for f in futures if f.done()}, None

    def unresolved_suspects(self):
        return bool(self.supervisor._suspects) or any(t.suspect for t in self.tasks)

    def run(self, tasks, script):
        self.tasks = tasks
        self._script = script(self)

        def on_success(task, result):
            self.events.append(("ok", task.seed, len(self.executor.seeds)))

        def on_failure(task, failure):
            self.events.append(("failed", task.seed, len(self.executor.seeds)))
            self.failures[task.seed] = failure

        assert self.supervisor.run(tasks, self.workers, on_success, on_failure)
        settled = sorted(seed for _, seed, _ in self.events)
        assert settled == sorted(t.seed for t in tasks)  # each exactly once

    def land(self, seed, result="ok"):
        self.executor.future(seed).set_result(result)

    def fail(self, seed, exc):
        self.executor.future(seed).set_exception(exc)


class TestStagingAndSettleOrder:
    """The pooled loop against hand-completed futures: ``workers`` running
    plus one staged, decide -> refill -> settle."""

    def test_slot_is_refilled_before_its_result_is_settled(self, monkeypatch):
        cfg = FaultConfig()

        def script(h):
            assert h.executor.seeds == [1000, 1001, 1002]  # 2 running + 1 staged
            h.land(1000)
            yield
            for seed in (1001, 1002, 1003, 1004):
                h.land(seed)
                yield

        harness = _Scripted(monkeypatch, SupervisionPolicy(**FAST), workers=2)
        harness.run(_tasks(cfg, 5), script)
        # When rep 0 was settled its replacement (the fourth submission) was
        # already in the pool, and so on until the queue ran dry.
        assert harness.events[:2] == [("ok", 1000, 4), ("ok", 1001, 5)]
        assert max(count for count, _ in harness.in_flight) == 3

    def test_quarantine_tripped_in_a_wave_stops_that_waves_refill(self, monkeypatch):
        good, bad = FaultConfig(mode="ok"), FaultConfig(mode="boom")
        tasks = [
            RepTask(name=cfg.label, config=cfg, rep=rep, seed=seed)
            for seed, (cfg, rep) in enumerate(
                [(bad, 0), (good, 0), (good, 1), (bad, 1), (bad, 2)], start=1000
            )
        ]

        def script(h):
            h.fail(1000, ValueError("boom"))
            h.land(1001)  # same wave: its success must not delay the verdict
            yield
            h.land(1002)
            yield

        policy = SupervisionPolicy(retries=0, quarantine_after=1, **FAST)
        harness = _Scripted(monkeypatch, policy, workers=2)
        harness.run(tasks, script)
        assert harness.executor.seeds == [1000, 1001, 1002]  # bad reps 1, 2 never launched
        assert harness.failures[1000].error_type == "ValueError"
        assert {harness.failures[s].error_type for s in (1003, 1004)} == {"QuarantinedError"}

    def test_validation_error_is_still_never_retried(self, monkeypatch):
        def validate(result):
            if result == "torn":
                raise ValidationError("conservation violated")

        def script(h):
            h.land(1000, "torn")
            yield
            h.land(1001)
            yield

        policy = SupervisionPolicy(retries=2, **FAST)
        harness = _Scripted(monkeypatch, policy, workers=2, validate_fn=validate)
        harness.run(_tasks(FaultConfig(), 2), script)
        assert harness.executor.seeds == [1000, 1001]
        assert harness.failures[1000].error_type == "ValidationError"
        assert harness.failures[1000].attempts == 1

    def test_staged_flight_outlives_the_timeout_and_is_requeued_uncharged(self, monkeypatch):
        def script(h):
            h.now += 11.0  # both running flights blow the 10 s budget
            yield
            # A new pool: the staged rep starts over, uncharged, with rep 3.
            assert len(h.executor.pools) == 2
            assert h.executor.seeds[3:] == [1002, 1003]
            assert h.tasks[2].attempts == 1 and h.tasks[2].elapsed_s == 0.0
            h.now += 2.0
            h.land(1002)
            h.land(1003)
            yield

        policy = SupervisionPolicy(timeout_s=10.0, retries=0, **FAST)
        harness = _Scripted(monkeypatch, policy, workers=2)
        harness.run(_tasks(FaultConfig(), 4), script)
        assert {harness.failures[s].error_type for s in (1000, 1001)} == {"RepTimeoutError"}
        assert harness.tasks[2].attempts == 1
        assert harness.tasks[2].elapsed_s == pytest.approx(2.0)  # staging not counted

    def test_deadline_starts_at_promotion_not_at_submission(self, monkeypatch):
        def script(h):
            h.now += 6.0
            h.land(1001)  # promotes the staged rep 2 at +6 s, stages rep 3
            yield
            h.now += 5.0  # +11 s: rep 0 is over budget, rep 2 has run 5 s
            yield
            assert set(h.failures) == {1000}
            assert [t.attempts for t in h.tasks[2:]] == [1, 1]  # relaunched, uncharged
            h.land(1002)
            h.land(1003)
            yield

        policy = SupervisionPolicy(timeout_s=10.0, retries=0, **FAST)
        harness = _Scripted(monkeypatch, policy, workers=2)
        harness.run(_tasks(FaultConfig(), 4), script)
        assert harness.failures[1000].error_type == "RepTimeoutError"
        assert harness.tasks[2].elapsed_s == pytest.approx(5.0)

    def test_crash_with_a_staged_flight_charges_nobody_and_reruns_all_alone(self, monkeypatch):
        def script(h):
            h.fail(1000, BrokenProcessPool("a worker died"))
            yield
            for rerun in range(3):  # one suspect at a time, nothing staged
                assert len(h.executor.seeds) == 3 + rerun + 1
                h.land(h.executor.seeds[-1])
                yield
            h.land(1003)
            h.land(1004)
            yield

        harness = _Scripted(monkeypatch, SupervisionPolicy(**FAST), workers=2)
        harness.run(_tasks(FaultConfig(), 5), script)
        assert not harness.failures
        assert sorted(harness.executor.seeds[3:6]) == [1000, 1001, 1002]
        assert [t.attempts for t in harness.tasks] == [1] * 5
        assert max(count for count, _ in harness.in_flight) == 3
        assert all(count <= 1 for count, suspects in harness.in_flight if suspects)
        assert sum(suspects for _, suspects in harness.in_flight) == 3


@dataclass(frozen=True)
class FlakyExperiment:
    """A real experiment config plus a marker directory, picklable across
    forkserver workers (which see a stale environment snapshot, so the
    marker path must travel inside the config, not in ``os.environ``)."""

    config: object
    marker: str

    @property
    def label(self) -> str:
        return self.config.label


def flaky_experiment_run(wrapper: FlakyExperiment, seed: int):
    marker = Path(wrapper.marker) / f"flaked-{seed}"
    if not marker.exists():
        marker.touch()
        raise RuntimeError("transient failure before the simulation started")
    from repro.framework.runner import _run_one

    return _run_one(wrapper.config, seed)


class TestRetryDeterminism:
    """Satellite guarantee: a retried repetition reuses its derived seed, so
    its result is byte-identical to a first-try success — under every pooled
    backend."""

    @pytest.mark.parametrize("backend", LOCAL_POOLS)
    def test_retried_rep_matches_first_try_success(self, tmp_path, backend):
        from repro.framework.config import ExperimentConfig
        from repro.framework.runner import _run_one, derive_seed
        from repro.units import kib

        config = ExperimentConfig(stack="quiche", file_size=kib(64), repetitions=2)
        seeds = [derive_seed(config.seed, rep) for rep in range(2)]
        baseline = {seed: _run_one(config, seed).fingerprint() for seed in seeds}

        wrapper = FlakyExperiment(config=config, marker=str(tmp_path))
        tasks = [
            RepTask(name="flaky", config=wrapper, rep=rep, seed=seed)
            for rep, seed in enumerate(seeds)
        ]
        supervisor = Supervisor(
            SupervisionPolicy(retries=2, **FAST),
            run_fn=flaky_experiment_run,
            executor=make_executor(backend),
        )
        successes, failures = _collect(supervisor, tasks, workers=2)
        assert not failures
        for (_, rep), (task, result) in successes.items():
            assert task.attempts == 2  # first try really flaked
            assert result.fingerprint() == baseline[seeds[rep]]
