"""SweepRunner: grid fan-out, serial/parallel determinism, progress lines."""

import dataclasses
import io
import re

import pytest

from repro.framework.cache import ResultCache
from repro.framework.config import ExperimentConfig
from repro.framework.experiment import ExperimentResult
from repro.framework.population import PopulationConfig, PopulationResult
from repro.framework.store import ResultStore, grid_key
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
    """Cache + store: ``fingerprint()`` is O(packets), so a cold sweep
    computes it once per repetition and hands the digest to the cache entry
    and the store row, which is the checkpoint (``journal_dir`` is ignored);
    a warm sweep is served by the rows and computes none."""
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

    for label, expected in (("cold", total), ("warm", 0)):
        del calls[:]
        summaries, rows = sweep()
        assert len(calls) == expected, label
        assert not (tmp_path / "journal").exists()
        for name, summary in summaries.items():
            for rep, result in enumerate(summary.results):
                assert rows[(name, rep)] == original(result)

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
def test_grown_sweep_stores_what_a_fresh_sweep_stores(tmp_path, monkeypatch, two_reps):
    """Growing a sweep from 2 to 3 repetitions over one cache serves reps 0-1
    as this grid's repetitions: rows and per-rep fingerprints equal those of
    a fresh 3-repetition sweep. The entries' fingerprints cover the 2-rep
    config, so exactly the two hits are digested anew, plus the computed
    third repetition."""
    three_reps = dataclasses.replace(two_reps, repetitions=3)
    cache = ResultCache(tmp_path / "cache")
    result_type = PopulationResult if isinstance(two_reps, PopulationConfig) else ExperimentResult
    calls = []
    original = result_type.fingerprint

    def counting(self):
        calls.append(self.seed)
        return original(self)

    with ResultStore(tmp_path / "grown.sqlite") as grown:
        SweepRunner(workers=1, cache=cache, store=grown).run({"x": two_reps})
        monkeypatch.setattr(result_type, "fingerprint", counting)
        summary = SweepRunner(workers=1, cache=cache, store=grown).run({"x": three_reps})["x"]
        monkeypatch.undo()
        assert cache.stats.hits == 2
        assert calls == [r.seed for r in summary.results]
        grown_digest = grown.content_fingerprint()
    with ResultStore(tmp_path / "fresh.sqlite") as fresh_store:
        fresh = SweepRunner(workers=1, cache=None, store=fresh_store).run({"x": three_reps})["x"]
        fresh_digest = fresh_store.content_fingerprint()
    assert [r.fingerprint() for r in summary.results] == [r.fingerprint() for r in fresh.results]
    assert grown_digest == fresh_digest


def test_warm_sweep_confirms_the_rows_it_wrote(tmp_path):
    """Over the store it wrote, a warm sweep writes and commits nothing, and
    leaves the content and the cold sweep's per-rep fingerprints; the same
    grid under other names is served by the cache and rewrites its rows."""
    total = sum(config.repetitions for config in GRID.values())
    cache = ResultCache(tmp_path / "cache")

    def digests(summaries):
        return {name: [r.fingerprint() for r in s.results] for name, s in summaries.items()}

    with ResultStore(tmp_path / "store.sqlite") as store:
        cold = SweepRunner(workers=1, cache=cache, store=store).run(GRID)
        expected = store.content_fingerprint()
        statements = statement_log(store)
        warm = SweepRunner(workers=1, cache=cache, store=store).run(GRID)
        assert (cache.stats.hits, cache.stats.misses) == (0, total)  # the cold sweep's misses
        assert len(statements) == len(GRID) + 1  # and the campaign row's lookup
        assert all(statement.startswith("SELECT") for statement in statements)
        assert store.content_fingerprint() == expected
        assert digests(warm) == digests(cold)

        renamed = {f"{name}-again": config for name, config in GRID.items()}
        statements = statement_log(store)
        SweepRunner(workers=1, cache=cache, store=store).run(renamed)
        assert cache.stats.hits == total
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


class _InterruptAt(io.StringIO):
    """A progress stream that raises ``KeyboardInterrupt`` on the k-th line
    holding ``marker``: the sweep prints a repetition's line after settling it."""

    def __init__(self, k, marker="[cached]"):
        super().__init__()
        self.k = k
        self.marker = marker

    def write(self, text):
        if self.marker in text:
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
        assert statements.count("COMMIT") == total  # the campaign row rode the first
        assert cold.info()["campaigns"] == [{"grid_key": grid_key(GRID), "shard": "0/1"}]
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
            workers=1, cache=cache, store=store, stream=_InterruptAt(3),
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


# -- the row is the entry -------------------------------------------------------


def _counting_run(ran):
    from repro.framework.runner import _run_one

    def run(config, seed):
        ran.append(seed)
        return _run_one(config, seed)

    return run


def test_a_warm_sweep_is_served_by_its_rows(tmp_path, monkeypatch):
    """Over the store it wrote, a sweep is one ``SELECT`` per grid entry: no
    cache entry is opened, no fingerprint taken, nothing run, written or
    committed, and every repetition is validated once."""
    from repro.framework import sweep as sweep_module

    cache = ResultCache(tmp_path / "cache")
    journal_dir = tmp_path / "journal"
    with ResultStore(tmp_path / "store.sqlite") as store:
        cold = SweepRunner(workers=1, cache=cache, journal_dir=journal_dir, store=store).run(GRID)
        expected = store.content_fingerprint()
        digests = {name: [r.fingerprint() for r in s.results] for name, s in cold.items()}

        touched, validated, ran = [], [], []
        for method in ("get", "read"):
            monkeypatch.setattr(ResultCache, method, lambda *args, **kw: touched.append(args))
        monkeypatch.setattr(
            ExperimentResult, "fingerprint", lambda self: pytest.fail("a hit was digested")
        )
        validate = sweep_module.validate_result
        monkeypatch.setattr(
            sweep_module,
            "validate_result",
            lambda result: (validated.append(result.seed), validate(result)),
        )
        statements = statement_log(store)
        warm = SweepRunner(
            workers=1, cache=cache, journal_dir=journal_dir, store=store,
            run_fn=_counting_run(ran),
        ).run(GRID)
        monkeypatch.undo()

        assert len(statements) == len(GRID) + 1  # and the campaign row's lookup
        assert all(statement.startswith("SELECT") for statement in statements)
        assert touched == [] and ran == []
        assert sorted(validated) == sorted(r.seed for s in cold.values() for r in s.results)
        assert all(not s.failures for s in warm.values())
        assert {name: [r.fingerprint() for r in s.results] for name, s in warm.items()} == digests
        assert all(r.config is GRID[name] for name, s in warm.items() for r in s.results)
        assert store.content_fingerprint() == expected
    assert not journal_dir.exists()


def test_a_store_alone_resumes_from_its_rows(tmp_path):
    """No cache, no journal: what an interrupted sweep committed serves its
    repetitions on the next run, which computes only the rest."""
    total = sum(config.repetitions for config in GRID.values())
    path = tmp_path / "store.sqlite"
    with ResultStore(path) as store:
        with pytest.raises(KeyboardInterrupt):
            SweepRunner(workers=1, store=store, stream=_InterruptAt(2, "[sweep]")).run(GRID)
        settled = store.rep_count()
    assert settled == 2  # a repetition is committed before its line is printed

    ran = []
    stream = io.StringIO()
    with ResultStore(path) as store:
        SweepRunner(workers=1, store=store, stream=stream, run_fn=_counting_run(ran)).run(GRID)
        resumed = store.content_fingerprint()
    assert len(ran) == total - settled
    assert stream.getvalue().count("[cached]") == settled
    with ResultStore(tmp_path / "clean.sqlite") as clean:
        SweepRunner(workers=1, store=clean).run(GRID)
        assert clean.content_fingerprint() == resumed


def test_a_resumed_sweep_carries_recorded_failures_without_writing(tmp_path):
    """Over a store that holds failures, a resumed sweep only reads: each
    failure is carried forward as recorded, and nothing runs or is written.
    ``resume=False`` runs them again."""
    from repro.framework.runner import _run_one
    from repro.framework.supervision import SupervisionPolicy

    def tcp_crashes(config, seed):
        if config.stack == "tcp":
            raise RuntimeError("tcp crashed")
        return _run_one(config, seed)

    with ResultStore(tmp_path / "store.sqlite") as store:
        policy = SupervisionPolicy(retries=0)
        recorded = SweepRunner(workers=1, store=store, policy=policy, run_fn=tcp_crashes).run(
            GRID
        )["tcp"].failures
        assert len(recorded) == 2 and store.failure_count() == 2

        ran, stream = [], io.StringIO()
        statements = statement_log(store)
        carried = SweepRunner(
            workers=1, store=store, stream=stream, run_fn=_counting_run(ran)
        ).run(GRID)
        assert ran == [] and carried["tcp"].failures == recorded
        assert statements and all(statement.startswith("SELECT") for statement in statements)
        assert stream.getvalue().count("FAILED previously (RuntimeError) [store]") == 2

        healed = SweepRunner(
            workers=1, store=store, resume=False, run_fn=_counting_run(ran)
        ).run(GRID)
        assert len(ran) == 2 and not healed["tcp"].failures
        assert store.failure_count() == 0


def test_a_grown_sweep_is_not_served_by_the_shorter_sweeps_rows(tmp_path):
    """A row's fingerprint covers ``repetitions``: growing 1 → 2 reps over a
    store alone recomputes rep 0 (silently: its encoding is another) and
    stores what a fresh 2-rep sweep stores."""
    one = ExperimentConfig(stack="quiche", file_size=kib(150), repetitions=1)
    two = dataclasses.replace(one, repetitions=2)
    ran = []
    stream = io.StringIO()
    with ResultStore(tmp_path / "grown.sqlite") as grown:
        SweepRunner(workers=1, store=grown).run({"x": one})
        SweepRunner(workers=1, store=grown, stream=stream, run_fn=_counting_run(ran)).run(
            {"x": two}
        )
        grown_digest = grown.content_fingerprint()
    assert len(ran) == 2
    assert "[cached]" not in stream.getvalue() and "warning" not in stream.getvalue()
    with ResultStore(tmp_path / "fresh.sqlite") as fresh:
        SweepRunner(workers=1, store=fresh).run({"x": two})
        assert fresh.content_fingerprint() == grown_digest


def test_a_flipped_byte_in_a_row_blob_is_cleared_and_recomputed(tmp_path):
    """The blob's sha256 catches a flipped bit that would still unpickle:
    the blob is cleared, counted and reported, the repetition recomputed,
    and the row rewritten to the same content."""
    stream = io.StringIO()
    with ResultStore(tmp_path / "store.sqlite", stream=stream) as store:
        SweepRunner(workers=1, store=store).run(GRID)
        expected = store.content_fingerprint()
        where = "WHERE name = 'quiche' AND rep = 1"
        (blob,) = store._conn.execute(f"SELECT result FROM reps {where}").fetchone()
        blob = bytearray(blob)
        body = blob.index(b"\n") + 1
        blob[body + (len(blob) - body) // 2] ^= 1
        store._conn.execute(f"UPDATE reps SET result = ? {where}", (bytes(blob),))
        store._conn.commit()

        ran = []
        SweepRunner(workers=1, store=store, run_fn=_counting_run(ran)).run(GRID)
        assert len(ran) == 1 and store.evictions == 1
        (line,) = stream.getvalue().splitlines()
        assert line.startswith("[store] warning: cleared the result blob of quiche rep 1")
        assert "digest mismatch" in line
        assert store.content_fingerprint() == expected
        assert None not in [row[0] for row in store._conn.execute("SELECT result FROM reps")]


def test_a_pooled_sweep_encodes_each_grid_config_once(tmp_path, monkeypatch):
    """A computed result comes back from the pool with the worker's copy of
    its config; bound to the grid's own object, the parent takes each
    config's (and its per-rep form's) ``asdict`` once, not per repetition."""
    from repro.framework import config as config_module

    encoded = []
    asdict = config_module.asdict
    monkeypatch.setattr(
        config_module, "asdict", lambda obj: (encoded.append(obj), asdict(obj))[1]
    )
    grid = {name: dataclasses.replace(config) for name, config in GRID.items()}  # cold memos
    with ResultStore(tmp_path / "store.sqlite") as store:
        summaries = SweepRunner(
            workers=2, backend="forkserver", cache=ResultCache(tmp_path / "cache"), store=store
        ).run(grid)
    assert all(len(s.results) == s.config.repetitions for s in summaries.values())
    expected = [*grid.values(), *(config.per_rep for config in grid.values())]
    assert sorted(map(id, encoded)) == sorted(map(id, expected))
