"""Execution backends for the sweep layer: where repetitions run.

An :class:`Executor` names *where repetitions run*; the
:class:`~repro.framework.supervision.Supervisor` owns *how they are watched*
(timeouts, retries, crash attribution), so every backend inherits the full
supervision/store/cache semantics unchanged. There are two:

``inprocess``
    Serial, in the calling process. No subprocesses, no pickling — the
    debugging, profiling and portable backend. Cannot enforce wall-clock
    timeouts: a hung repetition cannot be interrupted from inside its own
    process.

``forkserver``
    The one pool, and the default. Workers are forked from a
    long-lived server process that *pre-imports* the simulator once
    (:data:`FORKSERVER_PRELOAD`), so worker start-up — paid up front and
    again on every supervision restart (watchdog kill, crash recovery) — is
    a ``fork()`` of a warm, thread-free interpreter, not a re-import. The
    server is started once per process (≈ 0.25 s, measured in DESIGN §7.2)
    by the first :meth:`~ForkServerExecutor.make_pool`, with this package's
    directory on its ``PYTHONPATH`` so that the preload can import. It
    snapshots the environment then: run-time state must travel to a worker
    inside the task, never through ``os.environ``.

The Supervisor submits the repetition function itself and reads
``future.result()`` itself, so a result is pickled once, by the pool's own
queue. More machines are not a third backend: a campaign is split with
``SweepRunner(shard=(i, n))`` and the part stores are united with
:meth:`~repro.framework.store.ResultStore.merge_from`.

Selection is an *execution* concern, deliberately independent of
``ExperimentConfig``: the backend participates in no ``cache_key()``, no
campaign ``grid_key()``, and no result ``fingerprint()``, so the same grid is
served by the same cache entries under every backend — the differential test
suite (``tests/framework/test_store_differential.py``) pins exactly that.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import forkserver
from pathlib import Path
from typing import Optional, Tuple

from repro.errors import ConfigError

__all__ = [
    "BACKENDS",
    "Executor",
    "ForkServerExecutor",
    "InProcessExecutor",
    "make_executor",
]

#: Modules the forkserver pre-imports before the first fork. Importing the
#: runner pulls the whole simulator (engine, stacks, qdiscs, metrics)
#: transitively, so forked workers start with everything warm.
FORKSERVER_PRELOAD: Tuple[str, ...] = (
    "repro.framework.runner",
    "repro.framework.population",
)

#: The directory that holds the ``repro`` package this process imported.
_PACKAGE_ROOT = str(Path(__file__).resolve().parents[2])


class Executor:
    """Where repetitions run: serial in-process, or a process pool.

    ``serial`` backends never spawn subprocesses; pooled backends create
    fresh ``ProcessPoolExecutor`` instances via :meth:`make_pool` — called
    once up front and again on every supervision restart (watchdog kill,
    ``BrokenProcessPool`` recovery), so pool construction cost is a real
    per-campaign cost, not a one-off.
    """

    #: Registry name, also the CLI ``--backend`` value.
    name: str = "abstract"
    #: True for backends that run repetitions in the calling process.
    serial: bool = False

    def make_pool(self, workers: int) -> ProcessPoolExecutor:
        raise NotImplementedError(f"{self.name!r} backend does not pool")

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class InProcessExecutor(Executor):
    """Serial, in the calling process (tests, debugging, profiling)."""

    name = "inprocess"
    serial = True


class ForkServerExecutor(Executor):
    """Pool forked from a simulator-preloaded server process.

    The forkserver context is a process-wide singleton: the preload list
    only takes effect if it is registered before the server first starts, so
    it is set at construction time. Once the server is running (first pool
    of the process), later pools fork from the same warm server — which is
    exactly the point: a supervision pool restart costs a ``fork()``, not a
    re-import of the simulator.
    """

    name = "forkserver"

    def __init__(self):
        self._context = multiprocessing.get_context("forkserver")
        self._context.set_forkserver_preload(list(FORKSERVER_PRELOAD))

    def make_pool(self, workers: int) -> ProcessPoolExecutor:
        self._ensure_server()
        return ProcessPoolExecutor(max_workers=workers, mp_context=self._context)

    @staticmethod
    def _ensure_server() -> None:
        """Start the server (a lock and a ``waitpid`` once it runs) where it
        can import the preload list.

        The preload is a plain ``__import__`` in the server's fresh
        interpreter, whose ``ImportError`` CPython swallows, and that
        interpreter gets ``sys.path`` from ``PYTHONPATH`` alone (3.11's
        ``forkserver.main`` accepts ``sys_path`` and never applies it): a
        parent that found ``repro`` through a ``sys.path`` entry would fork
        cold workers that each re-import the simulator. The package root is
        therefore on ``PYTHONPATH`` for the length of this call.
        """
        saved = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_PACKAGE_ROOT, saved)))
        try:
            forkserver.ensure_running()
        finally:
            if saved is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = saved


_FACTORIES = {
    InProcessExecutor.name: InProcessExecutor,
    ForkServerExecutor.name: ForkServerExecutor,
}

#: Backend names, in documentation order; also the CLI ``--backend`` choices.
BACKENDS: Tuple[str, ...] = tuple(_FACTORIES)


def make_executor(backend: Optional[str]) -> Executor:
    """Resolve a backend name (or pass an :class:`Executor` through).

    ``None`` means the default (``forkserver``). Unknown names raise
    :class:`~repro.errors.ConfigError` — an operator error, mapped to exit
    code 2 by the CLI like every other configuration mistake.
    """
    if backend is None:
        return ForkServerExecutor()
    if isinstance(backend, Executor):
        return backend
    factory = _FACTORIES.get(backend)
    if factory is None:
        raise ConfigError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return factory()
