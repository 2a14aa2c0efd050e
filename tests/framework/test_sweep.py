"""SweepRunner: grid fan-out, serial/parallel determinism, progress lines."""

import io
import re

from repro.framework.cache import ResultCache
from repro.framework.config import ExperimentConfig
from repro.framework.sweep import SweepRunner, resolve_workers, run_sweep
from repro.units import kib

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
    import dataclasses

    from repro.framework.experiment import ExperimentResult
    from repro.framework.journal import SweepJournal
    from repro.framework.store import ResultStore

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
