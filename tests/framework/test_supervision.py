"""Supervised execution: crashes, hangs, retries, quarantine, degradation.

The fault stand-ins below are module-level so the process pool can pickle
them by reference; ``FaultConfig.marker`` points cross-process state at a
per-test temporary directory.
"""

import os
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.errors import ValidationError
from repro.framework.executors import make_executor
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
        # Journal lines and JSON artifacts written before the multi-host
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
