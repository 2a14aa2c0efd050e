"""Execution backends: selection, start methods, and result invisibility.

The executor layer must be *invisible* in every observable output: the same
grid run under every backend in ``BACKENDS`` produces bit-identical
fingerprints, because backends only decide *where* a repetition
runs, never *what* it computes (seeds, validation, and aggregation are all
backend-independent).
"""

import json
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

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


SRC = Path(__file__).resolve().parents[2] / "src"

#: Run as a script with ``repro`` reachable through ``sys.path`` alone, the way
#: ``benchmarks/bench/worker.py`` and any embedding program reach it.
_WARM_SCRIPT = """
import json, os, sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {here!r})

if __name__ == "__main__":
    import warm_probe
    from repro.framework.executors import ForkServerExecutor

    before = os.environ.get("PYTHONPATH")
    pool = ForkServerExecutor().make_pool(1)
    after = os.environ.get("PYTHONPATH")
    warm = pool.submit(warm_probe.loaded).result(timeout=120)
    pool.shutdown()
    print(json.dumps({{"warm": warm, "before": before, "after": after}}))
"""

#: Imports nothing of ``repro``, so unpickling the call cannot warm the worker.
_WARM_PROBE = """
import sys

def loaded():
    return [name in sys.modules for name in ("repro.framework.runner", "repro.framework.population")]
"""


@pytest.mark.parametrize("pythonpath", [None, "/nonexistent/site"])
def test_workers_start_warm_however_the_parent_found_the_package(tmp_path, pythonpath):
    # CPython's forkserver preload is an ``__import__`` in a fresh interpreter
    # whose ImportError is swallowed: without the package root on the server's
    # PYTHONPATH every worker of every pool re-imports the simulator.
    (tmp_path / "warm_probe.py").write_text(_WARM_PROBE)
    script = tmp_path / "warm_main.py"
    script.write_text(textwrap.dedent(_WARM_SCRIPT).format(src=str(SRC), here=str(tmp_path)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if pythonpath is not None:
        env["PYTHONPATH"] = pythonpath
    done = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=180
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["warm"] == [True, True]
    assert report["before"] == report["after"] == pythonpath  # os.environ untouched


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
    # campaign grid keys hash the config alone, never the backend.
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
