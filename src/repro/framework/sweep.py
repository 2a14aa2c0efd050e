"""Parallel sweep execution: fan a ``{name: config}`` grid across a shared
process pool at per-repetition granularity, under supervision.

Grids are duck-typed: any config with ``validate()``, ``label``,
``repetitions``, ``seed``, and the :class:`~repro.framework.config.CanonicalForm`
encodings (``cache_key()``, ``per_rep``, ``canonical_dict()``) runs here, so
:class:`~repro.framework.population.PopulationConfig` grids (hundreds of
concurrent flows per repetition) share the same caching, supervision, and
checkpoint/resume machinery as single-connection experiment grids — the
per-repetition worker dispatches on config type.

This is the execution substrate for grid-style reproduction (the paper's
4 stacks × 3 CCAs × 4 qdiscs × 3 GSO modes evaluation): every (config,
repetition) pair is an independent simulation, so one shared
``ProcessPoolExecutor`` schedules all of them at once and keeps every core
busy even when configurations have very different run times. Results are
bit-identical to a serial run — per-rep seeds come from
:func:`~repro.framework.runner.derive_seed` either way, and repetitions are
reassembled in order regardless of completion order.

Robustness. Execution runs under a
:class:`~repro.framework.supervision.Supervisor`: per-repetition wall-clock
timeouts, bounded retries that reuse the repetition's derived seed (so a
retried success is bit-identical to a first-attempt one), ``BrokenProcessPool``
recovery that restarts the pool instead of discarding in-flight work, and
quarantine of configurations that fail repeatedly. A sweep therefore *always
returns*: failed repetitions surface as structured
:class:`~repro.framework.supervision.RepFailure` entries on each
:class:`~repro.framework.runner.RunSummary` rather than as an exception that
loses the surviving grid. Every fresh or cached result is checked against the
invariants in :mod:`repro.framework.validate` before it is cached or
summarized.

Checkpoint/resume. An interrupted invocation re-run with the same grid
resumes where it stopped: the checkpoint is a
:class:`~repro.framework.store.ResultStore`, the ``store`` given or, without
one, a store of its own under ``journal_dir``. Each committed row is served
back as its repetition's result, and each recorded failure is carried
forward instead of being retried; ``resume=False`` runs the failures again.

Progress is streamed as one structured line per finished repetition (config
label, rep, sim-time, wall-time, events/sec from
``Simulator.events_processed``), conventionally to stderr so stdout stays a
clean report. A sweep that ran a pool ends with one line saying what share
of the workers' time went into simulating (``busy``).
"""

from __future__ import annotations

import contextlib
import os
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, TextIO, Tuple, Union

from repro.errors import ConfigError
from repro.framework.cache import ResultCache
from repro.framework.config import ExperimentConfig
from repro.framework.executors import Executor, make_executor
from repro.framework.experiment import ExperimentResult
from repro.framework.store import ResultStore, grid_key
from repro.framework.runner import RunSummary, _run_one, derive_seed, summarize_results
from repro.framework.supervision import (
    RepFailure,
    RepTask,
    SupervisionPolicy,
    Supervisor,
)
from repro.framework.validate import validate_result


def resolve_workers(workers: Optional[int]) -> int:
    """``None`` means "use every core"; anything below one clamps to serial."""
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, int(workers))


class SweepRunner:
    """Runs experiment grids with caching, supervision, and checkpointing.

    ``workers=None`` uses ``os.cpu_count()``. With one worker — or a single
    pending repetition — and no ``policy.timeout_s``, execution falls back
    to the serial in-process path (no subprocesses), which is byte-for-byte
    equivalent and simpler to debug. With a timeout set the repetitions
    always run in worker processes, where the watchdog can kill them; only
    ``backend="inprocess"`` runs unwatched. ``stream`` (e.g. ``sys.stderr``)
    receives one progress line per finished repetition.

    ``policy=None`` uses the default :class:`SupervisionPolicy` (no timeout,
    two retries, quarantine after three consecutive failures).
    Without a ``store``, ``journal_dir`` names a directory for the sweep's
    checkpoint store, ``<grid_key[:16]>.sqlite`` (keyed by grid content),
    opened for the run; with one, it is ignored. ``resume=False`` runs the
    checkpoint's recorded failures again. ``run_fn`` is the per-repetition
    worker function — a seam for chaos tests, which substitute
    crashing/hanging stand-ins.

    ``backend`` selects the execution backend
    (:mod:`repro.framework.executors`): ``"inprocess"`` (serial)
    or ``"forkserver"`` (the default: a supervised pool of
    simulator-preloaded workers) — or a ready
    :class:`~repro.framework.executors.Executor`. Backends are invisible to
    cache keys, grid keys, and fingerprints: the same grid produces
    bit-identical results under every backend.

    ``store`` names a :class:`~repro.framework.store.ResultStore` that every
    settled repetition is streamed into as it lands (successes, cache hits,
    and final failures alike) — the queryable canonical artifact for
    campaign-scale sweeps, and the sweep's checkpoint. Its rows are looked
    up first, one ``SELECT`` per grid entry: a row that is the requested
    repetition is served as is, so a sweep over the store it wrote opens no
    cache entry and writes and commits nothing. The rest fall through to
    the cache, then to the pool. A computed repetition is committed on its
    own; a grid entry's cache hits share one commit. The store also records
    the run's ``(grid_key, shard)`` campaign row.

    ``shard=(i, n)`` runs part ``i`` of a campaign split ``n`` ways (one
    invocation per host): of the grid's repetitions, numbered in grid order,
    those numbered ``i`` modulo ``n`` — round-robin, so configurations of
    unequal cost spread evenly. The rest are not looked up or stored;
    :meth:`~repro.framework.store.ResultStore.merge_from` unites the parts'
    stores into the one an unsharded run (``(0, 1)``) writes. A checkpoint
    store under ``journal_dir`` is named ``….shard-I-of-N.sqlite`` then.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        stream: Optional[TextIO] = None,
        policy: Optional[SupervisionPolicy] = None,
        journal_dir: Optional[Union[str, Path]] = None,
        resume: bool = True,
        validate: bool = True,
        run_fn=_run_one,
        backend: Union[str, Executor, None] = None,
        store: Optional[ResultStore] = None,
        shard: Tuple[int, int] = (0, 1),
    ):
        index, count = shard
        if not 0 <= index < count:
            raise ConfigError(f"shard must be I/N with 0 <= I < N, got {index}/{count}")
        self.shard = (index, count)
        self.workers = resolve_workers(workers)
        self.cache = cache
        self.stream = stream
        self.policy = policy if policy is not None else SupervisionPolicy()
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        self.resume = resume
        self.validate = validate
        self.run_fn = run_fn
        self.executor = make_executor(backend)
        self.store = store
        for sink in (self.cache, self.store):
            if sink is not None and sink.stream is None:
                sink.stream = stream

    def run(self, grid: Mapping[str, ExperimentConfig]) -> Dict[str, RunSummary]:
        """Run every repetition of every named config; summaries keep grid order."""
        for config in grid.values():
            config.validate()
        with contextlib.ExitStack() as opened:
            store = self.store
            if store is not None or self.journal_dir is not None:
                key = grid_key(grid)
                if store is None:
                    index, count = self.shard
                    stem = key[:16] if count == 1 else f"{key[:16]}.shard-{index}-of-{count}"
                    checkpoint = ResultStore(self.journal_dir / f"{stem}.sqlite", self.stream)
                    store = opened.enter_context(checkpoint)
                opened.enter_context(store.campaign(key, self.shard))
            return self._run(grid, store)

    def _run(
        self, grid: Mapping[str, ExperimentConfig], store: Optional[ResultStore]
    ) -> Dict[str, RunSummary]:
        slots: Dict[str, List[Optional[ExperimentResult]]] = {
            name: [None] * config.repetitions for name, config in grid.items()
        }
        failures: Dict[str, List[RepFailure]] = {name: [] for name in grid}
        pending: List[RepTask] = []
        index, count = self.shard
        position = 0
        validate = validate_result if self.validate else None
        # The cache hits of the scan are committed once per grid entry, not
        # once per repetition.
        batch = store.batch if store is not None else contextlib.nullcontext
        for name, config in grid.items():
            # Round-robin over the flattened grid: this shard's repetitions.
            reps = range((index - position) % count, config.repetitions, count)
            position += config.repetitions
            with batch():
                served = store.served(name, config, reps, validate) if store is not None else {}
                for rep in reps:
                    held = served.get(rep)
                    if isinstance(held, RepFailure):
                        if self.resume:
                            # Carried forward as recorded: nothing runs or is
                            # written. --no-resume runs it again.
                            failures[name].append(held)
                            self._emit_line(
                                f"[sweep] {name} rep {rep + 1}/{config.repetitions}: "
                                f"FAILED previously ({held.error_type}) [store]"
                            )
                            continue
                    elif held is not None:
                        # The row is the entry: nothing to read or write.
                        slots[name][rep] = held
                        self._emit(name, config, rep, held, cached_hit=True)
                        continue
                    seed = derive_seed(config.seed, rep)
                    # An entry that fails validation is quarantined and missed.
                    hit = self.cache.get(config, seed, validate) if self.cache else None
                    if hit is not None:
                        slots[name][rep] = hit.result
                        if store is not None:
                            store.record_result(name, rep, hit.result, fingerprint=hit.fingerprint)
                        self._emit(name, config, rep, hit.result, cached_hit=True)
                    else:
                        pending.append(RepTask(name=name, config=config, rep=rep, seed=seed))

        if pending:
            supervisor = Supervisor(
                self.policy,
                run_fn=self.run_fn,
                validate_fn=validate,
                executor=self.executor,
            )

            fresh_wall_s: List[float] = []

            def on_success(task: RepTask, result: ExperimentResult) -> None:
                # A pooled result carries the worker's unpickled copy of the
                # config, whose encodings are cold; the grid's own object has
                # them memoized (equal by construction, as a hit is bound).
                result.config = task.config
                slots[task.name][task.rep] = result
                fresh_wall_s.append(result.wall_time_s)
                # fingerprint() is O(packets): taken once, for the cache entry
                # and the row (without a cache, the store takes it).
                fingerprint = None
                if self.cache is not None:
                    fingerprint = result.fingerprint()
                    self.cache.put(task.config, result.seed, result, fingerprint)
                if store is not None:
                    store.record_result(task.name, task.rep, result, fingerprint=fingerprint)
                self._emit(task.name, task.config, task.rep, result, cached_hit=False)

            def on_failure(task: RepTask, failure: RepFailure) -> None:
                failures[task.name].append(failure)
                if store is not None:
                    store.record_failure(failure, task.config)
                self._emit_line(f"[sweep] {failure.describe()}")

            start = time.monotonic()
            pooled = supervisor.run(pending, self.workers, on_success, on_failure)
            wall_s = time.monotonic() - start
            if pooled:
                # How much of the pool's time went into simulating: start-up,
                # hand-off and this process's settling are the rest.
                busy = sum(fresh_wall_s) / (wall_s * self.workers)
                self._emit_line(
                    f"[sweep] {len(fresh_wall_s)} repetitions in {wall_s:.2f} s "
                    f"on {self.workers} workers, busy {busy * 100:.0f} %"
                )

        return {
            name: summarize_results(config, slots[name], failures[name])
            for name, config in grid.items()
        }

    def _emit_line(self, line: str) -> None:
        if self.stream is not None:
            print(line, file=self.stream, flush=True)

    def _emit(
        self,
        name: str,
        config: ExperimentConfig,
        rep: int,
        result: ExperimentResult,
        cached_hit: bool,
    ) -> None:
        if self.stream is None:
            return
        rate = result.events_processed / result.wall_time_s if result.wall_time_s > 0 else 0.0
        line = (
            f"[sweep] {name} rep {rep + 1}/{config.repetitions}: "
            f"sim {result.duration_ns / 1e9:.2f}s wall {result.wall_time_s:.2f}s "
            f"{result.events_processed} events ({rate:,.0f}/s)"
        )
        if cached_hit:
            line += " [cached]"
        print(line, file=self.stream, flush=True)


def run_sweep(
    grid: Mapping[str, ExperimentConfig],
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    stream: Optional[TextIO] = None,
    policy: Optional[SupervisionPolicy] = None,
    journal_dir: Optional[Union[str, Path]] = None,
    resume: bool = True,
    backend: Union[str, Executor, None] = None,
    store: Optional[ResultStore] = None,
) -> Dict[str, RunSummary]:
    """Convenience wrapper: build a :class:`SweepRunner` and run ``grid``."""
    return SweepRunner(
        workers=workers,
        cache=cache,
        stream=stream,
        policy=policy,
        journal_dir=journal_dir,
        resume=resume,
        backend=backend,
        store=store,
    ).run(grid)
