"""Execution backends: selection, start methods, and result invisibility.

The executor layer must be *invisible* in every observable output: the same
grid run under every backend in ``BACKENDS`` produces bit-identical
fingerprints, because backends only decide *where* a repetition
runs, never *what* it computes (seeds, validation, and aggregation are all
backend-independent).
"""

import pickle

import pytest

from repro.errors import ConfigError
from repro.framework.config import ExperimentConfig
from repro.framework.executors import (
    BACKENDS,
    Executor,
    ForkServerExecutor,
    InProcessExecutor,
    make_executor,
)
from repro.framework.sweep import SweepRunner
from repro.units import kib, mib


def _start_method(pool) -> str:
    method = pool._mp_context.get_start_method()
    pool.shutdown(wait=False)
    return method


class TestMakeExecutor:
    def test_default_is_forkserver(self):
        assert isinstance(make_executor(None), ForkServerExecutor)

    def test_every_advertised_backend_resolves(self):
        assert BACKENDS == ("inprocess", "forkserver")
        for backend in BACKENDS:
            executor = make_executor(backend)
            assert isinstance(executor, Executor)
            assert executor.name == backend

    def test_executor_instance_passes_through(self):
        executor = InProcessExecutor()
        assert make_executor(executor) is executor

    def test_unknown_backend_is_a_config_error(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            make_executor("threads")

    @pytest.mark.parametrize("backend", ["pool", "spawn", "distributed"])
    def test_deleted_backends_are_unknown_and_the_error_names_the_rest(self, backend):
        with pytest.raises(ConfigError, match="unknown backend") as excinfo:
            make_executor(backend)
        for remaining in BACKENDS:
            assert remaining in str(excinfo.value)

    def test_only_inprocess_is_serial(self):
        assert InProcessExecutor().serial
        assert not ForkServerExecutor().serial
        with pytest.raises(RuntimeError):
            InProcessExecutor().make_pool(2)


class TestStartMethods:
    def test_forkserver_pool_uses_forkserver(self):
        assert _start_method(ForkServerExecutor().make_pool(1)) == "forkserver"

    def test_forkserver_tolerates_running_server(self):
        # The preload list can only be set before the singleton server starts;
        # constructing a second executor afterwards must not raise.
        first = ForkServerExecutor()
        first.make_pool(1).shutdown(wait=True)
        assert _start_method(ForkServerExecutor().make_pool(1)) == "forkserver"


GRID = {
    "quiche": ExperimentConfig(stack="quiche", file_size=kib(96), repetitions=2),
    "tcp": ExperimentConfig(stack="tcp", file_size=kib(96), repetitions=2),
}


def _fingerprints(summaries):
    return {
        name: [r.fingerprint() for r in summary.results]
        for name, summary in summaries.items()
    }


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_backend_reproduces_the_serial_fingerprints(backend):
    baseline = SweepRunner(workers=1, backend="inprocess").run(GRID)
    swept = SweepRunner(workers=2, backend=backend).run(GRID)
    assert _fingerprints(swept) == _fingerprints(baseline)
    assert all(not s.failures for s in swept.values())


def test_backend_does_not_change_cache_keys():
    # The executor must be invisible to config identity: cache keys and
    # journal grid keys hash the config alone, never the backend.
    config = GRID["quiche"]
    key = config.cache_key()
    for backend in BACKENDS:
        SweepRunner(workers=1, backend=backend)  # construction has no side effect
        assert config.cache_key() == key


def test_large_result_crosses_the_pool_queue_intact():
    # An 8 MiB transfer pickles to ~380 KiB — past the 256 KiB mark where
    # results used to leave the queue for a shared-memory segment. The
    # pool's own queue must hand it back bit for bit. (A worker that dies
    # while producing a result is charged WorkerCrashError: test_chaos_smoke.)
    grid = {"big": ExperimentConfig(stack="quiche", file_size=mib(8), repetitions=2)}
    baseline = SweepRunner(workers=1, backend="inprocess").run(grid)
    assert len(pickle.dumps(baseline["big"].results[0])) > 256 * 1024
    swept = SweepRunner(workers=2, backend="forkserver").run(grid)
    assert _fingerprints(swept) == _fingerprints(baseline)
    assert not swept["big"].failures
