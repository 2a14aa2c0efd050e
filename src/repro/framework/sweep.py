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
resumes where it stopped. With a ``store``, its committed rows are the
checkpoint: each is served back as its repetition's result. Without one,
``journal_dir`` names where a :class:`~repro.framework.journal.SweepJournal`
records one atomic JSON line per settled repetition, and journaled successes
are restored through the :class:`~repro.framework.cache.ResultCache` (or
recomputed bit-identically on a cache miss). Either way journaled failures
are carried forward instead of being retried; ``resume=False`` discards the
journal and starts over.

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
from repro.framework.journal import SweepJournal
from repro.framework.store import ResultStore
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
    ``journal_dir`` names a directory for the sweep's checkpoint journal
    (keyed by grid content); ``resume=False`` discards any prior journal.
    ``run_fn`` is the per-repetition worker function — a seam for chaos
    tests, which substitute crashing/hanging stand-ins.

    ``backend`` selects the execution backend
    (:mod:`repro.framework.executors`): ``"inprocess"`` (serial)
    or ``"forkserver"`` (the default: a supervised pool of
    simulator-preloaded workers) — or a ready
    :class:`~repro.framework.executors.Executor`. Backends are invisible to
    cache keys, journals, and fingerprints: the same grid produces
    bit-identical results under every backend.

    ``store`` names a :class:`~repro.framework.store.ResultStore` that every
    settled repetition is streamed into as it lands (successes, cache hits,
    and final failures alike) — the queryable canonical artifact for
    campaign-scale sweeps. Its rows are looked up first, one ``SELECT`` per
    grid entry: a row that is the requested repetition is served as is, so
    a sweep over the store it wrote opens no cache entry and writes and
    commits nothing. The rest fall through to the cache, then to the pool.
    A computed repetition is committed on its own (the row is its
    checkpoint: with a store only failures are journaled); a grid entry's
    cache hits share one commit.

    ``shard=(i, n)`` runs part ``i`` of a campaign split ``n`` ways (one
    invocation per host): of the grid's repetitions, numbered in grid order,
    those numbered ``i`` modulo ``n`` — round-robin, so configurations of
    unequal cost spread evenly. The rest are not looked up, journaled or
    stored; :meth:`~repro.framework.store.ResultStore.merge_from` unites the
    parts' stores into the one an unsharded run (``(0, 1)``) writes.
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
        journal = (
            SweepJournal.for_grid(
                self.journal_dir,
                grid,
                fresh=not self.resume,
                stream=self.stream,
                shard=self.shard,
            )
            if self.journal_dir is not None
            else None
        )
        slots: Dict[str, List[Optional[ExperimentResult]]] = {
            name: [None] * config.repetitions for name, config in grid.items()
        }
        failures: Dict[str, List[RepFailure]] = {name: [] for name in grid}
        pending: List[RepTask] = []
        index, count = self.shard
        position = 0
        validate = validate_result if self.validate else None
        # What the scan settles (hits, carried failures) is committed once
        # per grid entry, not once per repetition.
        batch = self.store.batch if self.store is not None else contextlib.nullcontext
        for name, config in grid.items():
            # Round-robin over the flattened grid: this shard's repetitions.
            reps = range((index - position) % count, config.repetitions, count)
            position += config.repetitions
            with batch():
                served = (
                    self.store.served(name, config, reps, validate)
                    if self.store is not None
                    else {}
                )
                for rep in reps:
                    entry = journal.get(name, rep) if journal is not None else None
                    if entry is not None and entry.status == "failed" and entry.failure:
                        # Carried forward from the interrupted run; re-run it by
                        # resuming with --no-resume (or deleting the journal).
                        failures[name].append(entry.failure)
                        if self.store is not None:
                            self.store.record_failure(entry.failure, config)
                        self._emit_line(
                            f"[sweep] {name} rep {rep + 1}/{config.repetitions}: "
                            f"FAILED previously ({entry.failure.error_type}) [journal]"
                        )
                        continue
                    if rep in served:
                        # The row is the entry: nothing to read or write.
                        slots[name][rep] = served[rep]
                        self._emit(name, config, rep, served[rep], cached_hit=True)
                        continue
                    seed = derive_seed(config.seed, rep)
                    # An entry that fails validation is quarantined and missed.
                    hit = self.cache.get(config, seed, validate) if self.cache else None
                    if hit is not None:
                        slots[name][rep] = hit.result
                        self._settle(
                            journal, name, rep, seed, hit.result, hit.fingerprint, recomputed=False
                        )
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
                fingerprint = None
                if self.cache is not None:
                    fingerprint = result.fingerprint()
                    self.cache.put(task.config, result.seed, result, fingerprint)
                self._settle(
                    journal, task.name, task.rep, task.seed, result, fingerprint, recomputed=True
                )
                self._emit(task.name, task.config, task.rep, result, cached_hit=False)

            def on_failure(task: RepTask, failure: RepFailure) -> None:
                failures[task.name].append(failure)
                if journal is not None:
                    journal.record_failure(failure)
                if self.store is not None:
                    self.store.record_failure(failure, task.config)
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

    def _settle(
        self,
        journal: Optional[SweepJournal],
        name: str,
        rep: int,
        seed: int,
        result: ExperimentResult,
        fingerprint: Optional[str],
        recomputed: bool,
    ) -> None:
        """Store, or else journal, one successful repetition.

        ``fingerprint()`` is O(packets), so it is taken once per computed
        repetition, kept with its cache entry, and travels to the sink as
        ``fingerprint``. ``None`` (no cache, or a hit served to a sweep of
        another length) is digested once, and only if a sink needs it. With
        a store the committed row is the checkpoint, and the store warns of
        a fingerprint that moved; the journal keeps failures only.
        """
        if self.store is not None:
            self.store.record_result(name, rep, result, fingerprint=fingerprint)
            return
        if journal is None:
            return
        if fingerprint is None:
            fingerprint = result.fingerprint()
        prior = journal.get(name, rep) if recomputed else None
        if prior is not None and prior.fingerprint and prior.fingerprint != fingerprint:
            self._emit_line(
                f"[sweep] warning: {name} rep {rep} recomputed "
                f"with a different fingerprint than the journaled run "
                f"(determinism regression?)"
            )
        journal.record_success(name, rep, seed, fingerprint)

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
