"""SweepRunner: grid fan-out, serial/parallel determinism, progress lines."""

import dataclasses
import io
import re

import pytest

from repro.framework.cache import ResultCache
from repro.framework.config import ExperimentConfig
from repro.framework.population import PopulationConfig
from repro.framework.store import ResultStore
from repro.framework.sweep import SweepRunner, resolve_workers, run_sweep
from repro.units import kib, seconds
from tests.conftest import statement_log

GRID = {
    "quiche": ExperimentConfig(stack="quiche", file_size=kib(150), repetitions=2),
    "tcp": ExperimentConfig(stack="tcp", file_size=kib(150), repetitions=2),
}


def _fingerprint(summaries):
    return {
        name: [
            (r.seed, r.goodput_mbps, r.dropped, tuple(r.server_records))
            for r in summary.results
        ]
        for name, summary in summaries.items()
    }


def test_parallel_matches_serial_over_grid():
    serial = SweepRunner(workers=1).run(GRID)
    parallel = SweepRunner(workers=3).run(GRID)
    assert _fingerprint(parallel) == _fingerprint(serial)
    assert list(parallel) == list(GRID)  # summaries keep grid order


def test_cached_matches_uncached(tmp_path):
    cache = ResultCache(tmp_path)
    cold = SweepRunner(workers=2, cache=cache).run(GRID)
    assert cache.stats.stores == 4
    warm = SweepRunner(workers=2, cache=cache).run(GRID)
    assert cache.stats.hits == 4
    assert _fingerprint(warm) == _fingerprint(cold)


def test_progress_lines(tmp_path):
    cache = ResultCache(tmp_path)
    stream = io.StringIO()
    run_sweep(GRID, workers=1, cache=cache, stream=stream)
    lines = stream.getvalue().splitlines()
    assert len(lines) == 4  # one per (config, rep)
    assert all(line.startswith("[sweep] ") for line in lines)
    assert any("quiche rep 1/2" in line for line in lines)
    assert any("events" in line and "wall" in line for line in lines)
    assert "[cached]" not in stream.getvalue()

    warm = io.StringIO()
    run_sweep(GRID, workers=1, cache=cache, stream=warm)
    assert sum(1 for line in warm.getvalue().splitlines() if "[cached]" in line) == 4


def test_pooled_sweep_ends_with_the_busy_share(tmp_path):
    cache = ResultCache(tmp_path)
    stream = io.StringIO()
    run_sweep(GRID, workers=2, cache=cache, stream=stream)
    *reps, last = stream.getvalue().splitlines()
    assert len(reps) == 4
    match = re.fullmatch(r"\[sweep\] 4 repetitions in \d+\.\d\d s on 2 workers, busy (\d+) %", last)
    assert match, last
    assert 0 < int(match.group(1)) <= 100  # simulated seconds over wall x workers
    # Cache-only (no pool ran): per-repetition lines and nothing else.
    warm = io.StringIO()
    run_sweep(GRID, workers=2, cache=cache, stream=warm)
    assert len(warm.getvalue().splitlines()) == 4 and "busy" not in warm.getvalue()


def test_resolve_workers():
    assert resolve_workers(None) >= 1
    assert resolve_workers(0) == 1
    assert resolve_workers(-3) == 1
    assert resolve_workers(4) == 4


def test_rep_results_slot_into_rep_order():
    cfg = ExperimentConfig(stack="quiche", file_size=kib(150), repetitions=3)
    summary = run_sweep({"x": cfg}, workers=3)["x"]
    from repro.framework.runner import derive_seed

    assert [r.seed for r in summary.results] == [
        derive_seed(cfg.seed, rep) for rep in range(3)
    ]


def test_one_fingerprint_per_repetition(tmp_path, monkeypatch):
    """Cache + journal + store: ``fingerprint()`` is O(packets), so a sweep
    computes it once per settled repetition (fresh or cache hit) and hands
    the digest to the journal and the store."""
    from repro.framework.experiment import ExperimentResult
    from repro.framework.journal import SweepJournal

    calls = []
    original = ExperimentResult.fingerprint

    def counting(self):
        calls.append(self.seed)
        return original(self)

    monkeypatch.setattr(ExperimentResult, "fingerprint", counting)
    total = sum(config.repetitions for config in GRID.values())

    def sweep():
        with ResultStore(tmp_path / "store.sqlite") as store:
            summaries = SweepRunner(
                workers=1,
                cache=ResultCache(tmp_path / "cache"),
                journal_dir=tmp_path / "journal",
                store=store,
            ).run(GRID)
            rows = {(row["name"], row["rep"]): row["fingerprint"] for row in store.query()}
        return summaries, rows

    for label in ("cold", "warm"):
        del calls[:]
        summaries, rows = sweep()
        assert len(calls) == total, label
        journal = SweepJournal.for_grid(tmp_path / "journal", GRID)
        for name, summary in summaries.items():
            for rep, result in enumerate(summary.results):
                digest = original(result)
                assert rows[(name, rep)] == digest
                assert journal.get(name, rep).fingerprint == digest

    # Without the argument the store computes the digest itself...
    result = summaries["tcp"].results[0]
    with ResultStore(tmp_path / "other.sqlite") as store:
        del calls[:]
        store.record_result("tcp", 0, result)
        assert len(calls) == 1
        assert store.query()[0]["fingerprint"] == original(result)
    # ...and nothing is remembered on the result: an altered copy digests anew.
    altered = dataclasses.replace(result, dropped=result.dropped + 1)
    assert altered.fingerprint() != result.fingerprint()
    result.dropped += 1
    assert result.fingerprint() == altered.fingerprint()


@pytest.mark.parametrize(
    "two_reps",
    [
        ExperimentConfig(stack="quiche", file_size=kib(150), repetitions=2),
        PopulationConfig(
            flows=8,
            arrival_rate_per_s=200.0,
            file_size=kib(32),
            profiles=("quiche:cubic", "tcp"),
            max_sim_time_ns=seconds(120),
            repetitions=2,
        ),
    ],
    ids=["experiment", "population"],
)
def test_grown_sweep_stores_what_a_fresh_sweep_stores(tmp_path, two_reps):
    """Growing a sweep from 2 to 3 repetitions over one cache serves reps 0-1
    as this grid's repetitions: rows and per-rep fingerprints equal those of
    a fresh 3-repetition sweep."""
    three_reps = dataclasses.replace(two_reps, repetitions=3)
    cache = ResultCache(tmp_path / "cache")
    with ResultStore(tmp_path / "grown.sqlite") as grown:
        SweepRunner(workers=1, cache=cache, store=grown).run({"x": two_reps})
        summary = SweepRunner(workers=1, cache=cache, store=grown).run({"x": three_reps})["x"]
        assert cache.stats.hits == 2
        grown_digest = grown.content_fingerprint()
    with ResultStore(tmp_path / "fresh.sqlite") as fresh_store:
        fresh = SweepRunner(workers=1, cache=None, store=fresh_store).run({"x": three_reps})["x"]
        fresh_digest = fresh_store.content_fingerprint()
    assert [r.fingerprint() for r in summary.results] == [r.fingerprint() for r in fresh.results]
    assert grown_digest == fresh_digest


def test_warm_sweep_confirms_the_rows_it_wrote(tmp_path):
    """Over the store it wrote, a warm sweep writes and commits nothing, and
    leaves the content and the cold sweep's per-rep fingerprints; the same
    grid under other names rewrites its rows."""
    total = sum(config.repetitions for config in GRID.values())
    cache = ResultCache(tmp_path / "cache")

    def digests(summaries):
        return {name: [r.fingerprint() for r in s.results] for name, s in summaries.items()}

    with ResultStore(tmp_path / "store.sqlite") as store:
        cold = SweepRunner(workers=1, cache=cache, store=store).run(GRID)
        expected = store.content_fingerprint()
        statements = statement_log(store)
        warm = SweepRunner(workers=1, cache=cache, store=store).run(GRID)
        assert cache.stats.hits == total
        assert len(statements) == total
        assert all(statement.startswith("SELECT") for statement in statements)
        assert store.content_fingerprint() == expected
        assert digests(warm) == digests(cold)

        renamed = {f"{name}-again": config for name, config in GRID.items()}
        statements = statement_log(store)
        SweepRunner(workers=1, cache=cache, store=store).run(renamed)
        assert statements.count("COMMIT") == len(GRID)
        assert sorted(row["name"] for row in store.query()) == sorted(
            name for name, config in renamed.items() for _ in range(config.repetitions)
        )


def test_a_hit_clears_a_failure_beside_its_row(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    with ResultStore(tmp_path / "store.sqlite") as store:
        SweepRunner(workers=1, cache=cache, store=store).run(GRID)
        expected = store.content_fingerprint()
        # A failure row beside a success, as a store written before a failure
        # yielded to a held success can contain.
        store._conn.execute(
            "INSERT INTO failures SELECT config_key, seed, name, label, rep,"
            " 'WorkerCrashError', 'exit code 23', '', 3, 1.0, 0"
            " FROM reps WHERE name = 'quiche' AND rep = 1"
        )
        store._conn.commit()
        assert store.group_summaries()["quiche"]["failed"] == 1
        SweepRunner(workers=1, cache=cache, store=store).run(GRID)
        assert store.failure_count() == 0
        assert store.content_fingerprint() == expected


class _InterruptAtHit(io.StringIO):
    """A progress stream that raises ``KeyboardInterrupt`` on the k-th hit."""

    def __init__(self, k):
        super().__init__()
        self.k = k

    def write(self, text):
        if "[cached]" in text:
            self.k -= 1
            if self.k == 0:
                raise KeyboardInterrupt
        return super().write(text)


def test_hit_scan_commits_once_per_grid_entry(tmp_path):
    entries = len(GRID)
    total = sum(config.repetitions for config in GRID.values())
    cache = ResultCache(tmp_path / "cache")

    # A fresh pooled sweep commits each computed repetition on its own.
    with ResultStore(tmp_path / "cold.sqlite") as cold:
        statements = statement_log(cold)
        SweepRunner(workers=2, cache=cache, store=cold).run(GRID)
        assert statements.count("COMMIT") == total
        expected = cold.content_fingerprint()

    # A warm sweep commits each grid entry's hits together.
    with ResultStore(tmp_path / "warm.sqlite") as warm:
        statements = statement_log(warm)
        SweepRunner(workers=2, cache=cache, store=warm).run(GRID)
        assert statements.count("COMMIT") == entries
        assert warm.content_fingerprint() == expected

    # Interrupted on the third hit (the second entry's first repetition):
    # the rows written before the interrupt are committed, and running the
    # sweep again converges to the uninterrupted store.
    path = tmp_path / "interrupted.sqlite"
    with ResultStore(path) as store:
        runner = SweepRunner(
            workers=1, cache=cache, store=store, stream=_InterruptAtHit(3),
            journal_dir=tmp_path / "journal",
        )
        with pytest.raises(KeyboardInterrupt):
            runner.run(GRID)
    with ResultStore(path) as store:
        assert store.rep_count() == 3
        SweepRunner(
            workers=1, cache=cache, store=store, journal_dir=tmp_path / "journal"
        ).run(GRID)
        assert store.content_fingerprint() == expected
