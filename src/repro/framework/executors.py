"""Execution backends for the sweep layer: where repetitions run.

An :class:`Executor` names *where repetitions run*; the
:class:`~repro.framework.supervision.Supervisor` owns *how they are watched*
(timeouts, retries, crash attribution), so every backend inherits the full
supervision/journal/cache semantics unchanged. There are three, one per
caller:

``inprocess``
    Serial, in the calling process. No subprocesses, no pickling — the
    debugging, profiling and portable backend. Cannot enforce wall-clock
    timeouts: a hung repetition cannot be interrupted from inside its own
    process.

``forkserver``
    The one local pool, and the default. Workers are forked from a
    long-lived server process that *pre-imports* the simulator once
    (:data:`FORKSERVER_PRELOAD`), so worker start-up — paid up front and
    again on every supervision restart (watchdog kill, crash recovery) — is
    a ``fork()`` of a warm, thread-free interpreter, not a re-import. The
    server is started once per process (≈ 0.25 s, measured in DESIGN §7.2)
    and snapshots the environment then: run-time state must travel to a
    worker inside the task, never through ``os.environ``.

``distributed``
    A lease-dispatching :class:`~repro.framework.remote.Coordinator` over
    long-lived worker agents on one or more hosts (SSH-launched, or local
    subprocesses for ``localhost``). Pool-compatible, so the Supervisor's
    retry/timeout/quarantine loop runs unchanged; host failures (crashes,
    hangs, partitions) are absorbed *below* the pool surface by lease
    reclaim + agent relaunch and charged to the host, never the config.

Every pooled backend hands results back the same way: the Supervisor submits
the repetition function itself and reads ``future.result()`` itself, so a
result is pickled once, by the pool's own queue.

Selection is an *execution* concern, deliberately independent of
``ExperimentConfig``: the backend participates in no ``cache_key()``, no
journal ``grid_key()``, and no result ``fingerprint()``, so the same grid is
served by the same cache entries under every backend — the differential test
suite (``tests/framework/test_store_differential.py``) pins exactly that.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Optional, Tuple

from repro.errors import ConfigError

__all__ = [
    "BACKENDS",
    "DistributedExecutor",
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
    #: True for backends whose "pool" spans machines; the Supervisor never
    #: collapses these to the serial in-process path, even for one task.
    distributed: bool = False

    def make_pool(self, workers: int) -> ProcessPoolExecutor:
        raise NotImplementedError(f"{self.name!r} backend does not pool")

    def observe_policy(self, policy) -> None:
        """Hook: the Supervisor announces its policy before pools are made.

        Local backends ignore it; the distributed backend derives its lease
        deadline from the per-repetition timeout so a legitimately slow
        repetition is charged a :class:`~repro.errors.RepTimeoutError` by
        the watchdog instead of masquerading as a host failure.
        """

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
        return ProcessPoolExecutor(max_workers=workers, mp_context=self._context)


class DistributedExecutor(Executor):
    """Multi-host coordinator backend (``repro.framework.remote``).

    ``make_pool`` starts a fresh :class:`~repro.framework.remote.Coordinator`
    (listening socket + agent launches) — called up front and again on every
    supervision restart, exactly like local pool construction. The most
    recent coordinator is kept on :attr:`last_coordinator` so callers and
    tests can read per-host accounting after a campaign.

    Default tuning is campaign-scale (5-minute leases, half-second
    heartbeats); the chaos suite passes much tighter knobs.
    """

    name = "distributed"
    distributed = True

    def __init__(
        self,
        hosts=("localhost",),
        *,
        stream=None,
        **coordinator_kwargs,
    ):
        from repro.framework.remote import merge_hosts

        if isinstance(hosts, str):
            from repro.framework.remote import parse_hosts

            hosts = parse_hosts(hosts)
        self.hosts = merge_hosts(hosts)
        if not self.hosts:
            raise ConfigError("distributed backend needs at least one host")
        self.stream = stream
        self.coordinator_kwargs = dict(coordinator_kwargs)
        self.last_coordinator = None

    #: A lease deadline must outlive the Supervisor's own per-rep watchdog
    #: by this factor, so the watchdog (which charges the config a
    #: RepTimeoutError and retries) always fires before lease expiry
    #: (which kills the agent and charges the host).
    LEASE_TIMEOUT_FACTOR = 1.25

    def observe_policy(self, policy) -> None:
        timeout_s = getattr(policy, "timeout_s", None)
        if timeout_s is None:
            return
        floor = timeout_s * self.LEASE_TIMEOUT_FACTOR
        current = self.coordinator_kwargs.get("lease_timeout_s", 300.0)
        if current < floor:
            self.coordinator_kwargs["lease_timeout_s"] = floor

    def make_pool(self, workers: int):
        from repro.framework.remote import Coordinator

        coordinator = Coordinator(
            self.hosts, stream=self.stream, **self.coordinator_kwargs
        )
        coordinator.start()
        self.last_coordinator = coordinator
        return coordinator

    def __repr__(self) -> str:
        specs = ",".join(
            f"{spec.host}:{spec.slots}" if spec.slots != 1 else spec.host
            for spec in self.hosts
        )
        return f"DistributedExecutor({specs})"


_FACTORIES = {
    InProcessExecutor.name: InProcessExecutor,
    ForkServerExecutor.name: ForkServerExecutor,
    DistributedExecutor.name: DistributedExecutor,
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
