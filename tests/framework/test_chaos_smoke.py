"""Chaos acceptance: a sweep survives injected crashes, hangs, and a
mid-run kill, and the surviving/resumed repetitions are bit-identical
(``fingerprint()``) to an uninterrupted serial run.

The chaotic worker functions (:mod:`tests.framework.chaos_run`, a module
that imports no pytest) wrap the real ``_run_one`` and consult marker
files under a per-test directory, so each fault fires exactly once and the
retry — which reuses the repetition's derived seed — must reproduce the
clean result bit for bit. The directory is bound into the submitted function
(``functools.partial``) and so travels with every task: forkserver workers
see the environment as it was when the server started, not the live one.
"""

import functools

import pytest

from repro.framework.cache import ResultCache
from repro.framework.config import ExperimentConfig, NetworkConfig
from repro.framework.runner import _run_one
from repro.framework.store import ResultStore, grid_key
from repro.framework.supervision import SupervisionPolicy
from repro.framework.sweep import SweepRunner
from repro.net.impairments import iid_loss
from repro.units import kib
from tests.conftest import LOCAL_POOLS
from tests.framework.chaos_run import (
    always_crash_lossy_run_one,
    crash_once_run_one,
    hang_once_run_one,
    interrupted_run_one,
)

FAST = SupervisionPolicy(timeout_s=20.0, retries=2)


def _grid():
    # Small but impaired, per the chaos-smoke brief: loss on one config.
    return {
        "clean": ExperimentConfig(stack="quiche", file_size=kib(150), repetitions=2),
        "lossy": ExperimentConfig(
            stack="quiche",
            file_size=kib(150),
            repetitions=2,
            network=NetworkConfig(forward_impairments=(iid_loss(0.02),)),
        ),
    }


def _fingerprints(summaries):
    return {
        name: [r.fingerprint() for r in summary.results]
        for name, summary in summaries.items()
    }


def _with_markers(run_one, chaos_dir):
    return functools.partial(run_one, str(chaos_dir / "chaos"))


@pytest.fixture(scope="module")
def clean_serial():
    """The uninterrupted ground truth every chaotic run must reproduce."""
    return SweepRunner(workers=1).run(_grid())


@pytest.fixture
def chaos_dir(tmp_path):
    (tmp_path / "chaos").mkdir()
    return tmp_path


def test_sweep_survives_worker_crash(chaos_dir, clean_serial):
    summaries = SweepRunner(
        workers=2, policy=FAST, run_fn=_with_markers(crash_once_run_one, chaos_dir)
    ).run(_grid())
    assert _fingerprints(summaries) == _fingerprints(clean_serial)
    assert all(not s.failures for s in summaries.values())


def test_sweep_survives_hung_worker(chaos_dir, clean_serial):
    policy = SupervisionPolicy(timeout_s=3.0, retries=2)
    summaries = SweepRunner(
        workers=2, policy=policy, run_fn=_with_markers(hang_once_run_one, chaos_dir)
    ).run(_grid())
    assert _fingerprints(summaries) == _fingerprints(clean_serial)


#: Where a sweep keeps its checkpoint: a store of its own under
#: ``journal_dir``, the ``store`` given, or that store behind a cache.
SETUPS = ["journal_dir", "store", "cache+store"]


def _checkpointed(setup, root):
    """Runner arguments for ``setup``: fresh handles on the same checkpoint."""
    if setup == "journal_dir":
        return {"journal_dir": root / "journals"}
    kwargs = {"store": ResultStore(root / "campaign.sqlite")}
    if setup == "cache+store":
        kwargs["cache"] = ResultCache(root / "cache")
    return kwargs


def _checkpoint(setup, root, grid) -> ResultStore:
    """The store that ``setup``'s sweeps of ``grid`` checkpointed into."""
    if setup == "journal_dir":
        return ResultStore(root / "journals" / f"{grid_key(grid)[:16]}.sqlite")
    return ResultStore(root / "campaign.sqlite")


@pytest.mark.parametrize("setup", SETUPS)
def test_killed_sweep_resumes_bit_identically(chaos_dir, clean_serial, setup):
    with pytest.raises(KeyboardInterrupt):
        SweepRunner(
            workers=1,
            run_fn=_with_markers(interrupted_run_one, chaos_dir),
            **_checkpointed(setup, chaos_dir),
        ).run(_grid())
    settled = len(list((chaos_dir / "chaos").glob("settled-*")))
    assert settled == 2  # the kill really landed mid-sweep

    # Resume: the settled reps are served by their rows, the rest run fresh.
    ran = []

    def counted(config, seed):
        ran.append(seed)
        return _run_one(config, seed)

    summaries = SweepRunner(
        workers=1, run_fn=counted, **_checkpointed(setup, chaos_dir)
    ).run(_grid())
    assert len(ran) == 2  # only the remaining reps computed
    assert _fingerprints(summaries) == _fingerprints(clean_serial)
    with _checkpoint(setup, chaos_dir, _grid()) as resumed:
        clean_store = _store_of(clean_serial, chaos_dir / "clean.sqlite")
        assert resumed.content_fingerprint() == clean_store.content_fingerprint()


def test_journaled_failures_carry_forward_until_no_resume(chaos_dir):
    _failures_carry_forward_until_no_resume("journal_dir", chaos_dir)


@pytest.mark.parametrize("setup", ["store", "cache+store"])
def test_recorded_failures_carry_forward_until_no_resume(chaos_dir, setup):
    _failures_carry_forward_until_no_resume(setup, chaos_dir)


def _failures_carry_forward_until_no_resume(setup, chaos_dir):
    """A rep that exhausts retries is recorded, carried forward on resume
    exactly as recorded, and re-run (successfully) only with resume=False."""

    grid = _grid()
    # The poison config crashes on every attempt; crash attribution must
    # shield the clean config's reps — an ambiguous pool crash re-runs the
    # in-flight suspects alone instead of charging them retry budget.
    policy = SupervisionPolicy(retries=1)
    summaries = SweepRunner(
        workers=2, policy=policy, run_fn=always_crash_lossy_run_one,
        **_checkpointed(setup, chaos_dir),
    ).run(grid)
    recorded = sorted(summaries["lossy"].failures, key=lambda failure: failure.rep)
    assert len(recorded) == 2
    assert recorded[0].error_type == "WorkerCrashError"
    assert not summaries["clean"].failures

    # Resume: the failures are carried forward verbatim, nothing re-runs.
    carried = SweepRunner(
        workers=2, policy=policy, run_fn=always_crash_lossy_run_one,
        **_checkpointed(setup, chaos_dir),
    ).run(grid)
    assert carried["lossy"].failures == recorded

    # resume=False: the reps run for real.
    healed = SweepRunner(
        workers=2, resume=False, policy=policy, **_checkpointed(setup, chaos_dir)
    ).run(grid)
    assert not healed["lossy"].failures
    assert len(healed["lossy"].results) == 2
    with _checkpoint(setup, chaos_dir, grid) as store:
        assert (store.rep_count(), store.failure_count()) == (4, 0)


# ---------------------------------------------------------------------------
# Store chaos: a campaign killed with its result store half-written must,
# after a resume — under any backend — converge to a store whose
# content is bit-identical to an uninterrupted run's, with no duplicate rows.


def _store_of(summaries, path) -> ResultStore:
    """Record already-computed summaries into a fresh store (ground truth)."""
    store = ResultStore(path)
    for name, summary in summaries.items():
        for rep, result in enumerate(summary.results):
            store.record_result(name, rep, result)
    return store


@pytest.mark.parametrize("backend", LOCAL_POOLS)
def test_killed_campaign_resumes_to_bit_identical_store(
    chaos_dir, clean_serial, backend
):
    cache = ResultCache(chaos_dir / "cache")
    journal_dir = chaos_dir / "journals"
    store_path = chaos_dir / "campaign.sqlite"
    with pytest.raises(KeyboardInterrupt):
        SweepRunner(
            workers=1,
            cache=cache,
            journal_dir=journal_dir,
            run_fn=_with_markers(interrupted_run_one, chaos_dir),
            store=ResultStore(store_path),
        ).run(_grid())
    half_written = ResultStore(store_path)
    assert 0 < half_written.rep_count() < 4  # the kill landed mid-store
    half_written.close()

    resumed_store = ResultStore(store_path)
    summaries = SweepRunner(
        workers=2,
        backend=backend,
        cache=ResultCache(chaos_dir / "cache"),
        journal_dir=journal_dir,
        store=resumed_store,
    ).run(_grid())
    assert all(not s.failures for s in summaries.values())
    assert resumed_store.rep_count() == 4  # the resume added no duplicates
    assert resumed_store.failure_count() == 0
    clean_store = _store_of(clean_serial, chaos_dir / "clean.sqlite")
    assert resumed_store.content_fingerprint() == clean_store.content_fingerprint()


@pytest.mark.parametrize("backend", LOCAL_POOLS)
def test_crash_looping_config_fails_into_the_store_under_every_pooled_backend(
    tmp_path, backend
):
    policy = SupervisionPolicy(retries=1)
    store = ResultStore(tmp_path / f"{backend}.sqlite")
    summaries = SweepRunner(
        workers=2,
        backend=backend,
        policy=policy,
        run_fn=always_crash_lossy_run_one,
        store=store,
    ).run(_grid())
    assert len(summaries["lossy"].failures) == 2
    assert not summaries["clean"].failures
    assert store.rep_count() == 2  # the clean config's repetitions
    assert store.failure_count() == 2
    assert {f.error_type for f in store.failures()} == {"WorkerCrashError"}
    assert {f.name for f in store.failures()} == {"lossy"}
