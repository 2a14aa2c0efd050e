"""Sweep journal: the checkpoint store a sweep keeps under ``journal_dir``
when it is given no store — one file per grid, keyed by grid content."""

import pytest

from repro.framework.config import ExperimentConfig
from repro.framework.experiment import run_experiment
from repro.framework.store import ResultStore, grid_key
from repro.framework.supervision import SupervisionPolicy
from repro.framework.sweep import SweepRunner
from repro.sim.random import derive_seed
from repro.units import kib

GRID = {
    "a": ExperimentConfig(stack="quiche", file_size=kib(96), repetitions=2),
    "b": ExperimentConfig(stack="tcp", file_size=kib(96), repetitions=2),
}

NO_RETRY = SupervisionPolicy(retries=0, backoff_base_s=0.0)


@pytest.fixture(scope="module")
def computed():
    """Every repetition of ``GRID``, by seed, computed once for the module."""
    return {
        derive_seed(config.seed, rep): run_experiment(config, seed=derive_seed(config.seed, rep))
        for config in GRID.values()
        for rep in range(config.repetitions)
    }


class Recorded:
    """A ``run_fn`` serving precomputed results, noting every seed it runs;
    configs whose stack is in ``failing`` raise instead."""

    def __init__(self, computed, failing=()):
        self.computed, self.failing, self.ran = computed, set(failing), []

    def __call__(self, config, seed):
        self.ran.append(seed)
        if config.stack in self.failing:
            raise RuntimeError("injected failure")
        result = self.computed[seed]
        result.config = config
        return result


def _sweep(root, run_fn, grid=GRID, resume=True):
    return SweepRunner(
        workers=1, backend="inprocess", policy=NO_RETRY, journal_dir=root,
        resume=resume, run_fn=run_fn,
    ).run(grid)


def _journal(root, grid=GRID) -> ResultStore:
    return ResultStore(root / f"{grid_key(grid)[:16]}.sqlite")


def test_mismatched_grid_starts_fresh(tmp_path, computed):
    _sweep(tmp_path, Recorded(computed))
    # Another grid in the same directory: its own journal, nothing misapplied.
    renamed = {"a2": GRID["a"], "b": GRID["b"]}
    run_fn = Recorded(computed)
    _sweep(tmp_path, run_fn, grid=renamed)
    assert len(run_fn.ran) == 4
    assert {path.name for path in tmp_path.glob("*.sqlite")} == {
        f"{grid_key(grid)[:16]}.sqlite" for grid in (GRID, renamed)
    }
    with _journal(tmp_path) as journal:
        assert journal.names() == ["a", "b"]


def test_fresh_discards_previous_run(tmp_path, computed):
    failed = _sweep(tmp_path, Recorded(computed, failing={"tcp"}))
    assert len(failed["b"].failures) == 2
    # resume=False runs the recorded failures again; the successes are served.
    run_fn = Recorded(computed)
    healed = _sweep(tmp_path, run_fn, resume=False)
    assert sorted(run_fn.ran) == sorted(r.seed for r in healed["b"].results)
    assert not healed["b"].failures
    with _journal(tmp_path) as journal:
        assert (journal.rep_count(), journal.failure_count()) == (4, 0)


def test_rerecord_identical_success_is_a_noop(tmp_path, computed):
    _sweep(tmp_path, Recorded(computed))
    with _journal(tmp_path) as journal:
        digest = journal.content_fingerprint()
    path = tmp_path / f"{grid_key(GRID)[:16]}.sqlite"
    mtime = path.stat().st_mtime_ns
    run_fn = Recorded(computed)
    _sweep(tmp_path, run_fn)
    assert run_fn.ran == []
    assert path.stat().st_mtime_ns == mtime  # no rewrite churn
    with _journal(tmp_path) as journal:
        assert journal.content_fingerprint() == digest


def test_failure_then_success_overwrites(tmp_path, computed):
    _sweep(tmp_path, Recorded(computed, failing={"tcp"}))
    _sweep(tmp_path, Recorded(computed), resume=False)
    with _journal(tmp_path) as journal:
        assert journal.failures() == []
        assert sorted(row["rep"] for row in journal.query(name="b")) == [0, 1]
    # A resumed sweep reads the successes back: nothing runs, nothing failed.
    run_fn = Recorded(computed)
    reloaded = _sweep(tmp_path, run_fn)
    assert run_fn.ran == [] and not reloaded["b"].failures
