"""Repetition runner: run a configuration N times, aggregate mean ± std, and
pool the captures for distribution metrics (as the paper combines all
repetitions before computing gap/train distributions).

Repetitions are independent simulations, so they fan out to a ``forkserver``
process pool by default (``workers=None`` uses ``os.cpu_count()``); results
are bit-identical to a serial run (seeds are derived the same way) but wall
time divides by the worker count — useful for full-scale (100 MiB x 20)
reproduction runs. Pass ``backend="inprocess"`` to force the in-process
serial path (no subprocesses, easier to debug/profile), and a
:class:`~repro.framework.cache.ResultCache` to reuse completed repetitions
across sessions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, TextIO, TYPE_CHECKING

from repro.framework.config import ExperimentConfig
from repro.framework.experiment import Experiment, ExperimentResult
from repro.framework.supervision import RepFailure, SupervisionPolicy
from repro.metrics.stats import Summary, summarize
from repro.net.tap import CaptureColumns
from repro.sim.random import derive_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.framework.cache import ResultCache

__all__ = [
    "RunSummary",
    "derive_seed",  # canonical home: repro.sim.random (re-exported for compat)
    "run_repetitions",
    "summarize_results",
]


@dataclass
class RunSummary:
    config: ExperimentConfig
    results: List[ExperimentResult]
    goodput: Summary
    dropped: Summary
    #: Repetitions that produced no valid result (crash, hang, validation
    #: failure, quarantine), as structured records — a sweep degrades to a
    #: partial summary instead of raising.
    failures: List[RepFailure] = field(default_factory=list)

    @property
    def pooled_records(self) -> List[CaptureColumns]:
        """Per-repetition captures (gaps must not straddle reps).

        Population results carry no single-flow capture, so they contribute
        no groups here — gap/train metrics simply report "-" for them.
        """
        return [r.server_records for r in self.results if hasattr(r, "server_records")]

    @property
    def all_completed(self) -> bool:
        return not self.failures and all(r.completed for r in self.results)

    def describe(self) -> str:
        line = (
            f"{self.config.label}: goodput {self.goodput} Mbit/s, "
            f"dropped {self.dropped} packets, reps={len(self.results)}"
        )
        if self.failures:
            line += f", FAILED reps={len(self.failures)}"
        return line


def summarize_results(
    config: ExperimentConfig,
    results: Sequence[Optional[ExperimentResult]],
    failures: Sequence[RepFailure] = (),
) -> RunSummary:
    """Aggregate per-repetition results into the paper's mean ± std summary.

    ``results`` may contain ``None`` slots for failed repetitions (described
    by ``failures``); statistics cover the surviving results only, and an
    all-failed run summarizes to NaN rather than raising.
    """
    survivors = [r for r in results if r is not None]
    nan = Summary(mean=float("nan"), std=float("nan"), n=0)
    return RunSummary(
        config=config,
        results=survivors,
        goodput=summarize([r.goodput_mbps for r in survivors]) if survivors else nan,
        dropped=summarize([float(r.dropped) for r in survivors]) if survivors else nan,
        failures=list(failures),
    )


def _run_one(config, seed: int):
    """Per-repetition worker: dispatches on config type so experiment grids
    and population grids share the sweep/supervision/cache machinery."""
    from repro.framework.population import PopulationConfig, run_population

    if isinstance(config, PopulationConfig):
        return run_population(config, seed=seed)
    return Experiment(config, seed=seed).run()


def run_repetitions(
    config: ExperimentConfig,
    workers: Optional[int] = None,
    cache: Optional["ResultCache"] = None,
    stream: Optional[TextIO] = None,
    policy: Optional[SupervisionPolicy] = None,
    journal_dir: Optional[str] = None,
    resume: bool = True,
    backend: Optional[str] = None,
    store=None,
) -> RunSummary:
    """Run ``config.repetitions`` measurements with derived per-rep seeds.

    ``workers=None`` defaults to ``os.cpu_count()``; one worker (or a single
    pending repetition) falls back to running serially in-process instead of
    starting a pool, unless ``policy`` sets a timeout. ``backend=None`` is
    the ``forkserver`` pool. Serial and parallel runs are bit-identical.
    ``cache``
    serves previously-computed repetitions from disk; ``stream`` receives one
    structured progress line per finished repetition. ``policy`` supervises
    execution (timeouts, retries, crash recovery); ``store``, or else a
    checkpoint store under ``journal_dir``, enables checkpoint/resume (see
    :class:`~repro.framework.sweep.SweepRunner`).
    """
    from repro.framework.sweep import SweepRunner

    summaries = SweepRunner(
        workers=workers,
        cache=cache,
        stream=stream,
        policy=policy,
        journal_dir=journal_dir,
        resume=resume,
        backend=backend,
        store=store,
    ).run({config.label: config})
    return summaries[config.label]
