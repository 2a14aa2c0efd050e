"""ResultStore unit tests: recording, identity, querying, migration.

The differential suite (``test_store_differential.py``) pins store-vs-JSON
equality across backends; this file covers the store's own contract —
idempotent keys, filters, pooled aggregation, schema versioning, and
migration from the two legacy artifact forms (result cache, summary JSON).
"""

import dataclasses
import io
import json
import pickle
import sqlite3

import pytest

from repro.errors import ConfigError
from repro.framework import store as store_module
from repro.framework.cache import ResultCache
from repro.framework.config import ExperimentConfig, NetworkConfig
from repro.framework.experiment import run_experiment
from repro.framework.runner import run_repetitions
from repro.framework.store import (
    ResultStore,
    STORE_VERSION,
    per_rep_key,
    per_rep_key_from_dict,
)
from repro.framework.supervision import RepFailure
from repro.metrics.gaps import fraction_leq, pooled_gaps
from repro.metrics.trains import pooled_fraction_of_packets_in_trains_leq
from repro.net.impairments import iid_loss
from repro.units import kib, us
from tests.conftest import flip_capture_byte, statement_log

CONFIG = ExperimentConfig(stack="quiche", file_size=kib(96), repetitions=2)
LOSSY = ExperimentConfig(
    stack="tcp",
    file_size=kib(96),
    repetitions=1,
    network=NetworkConfig(forward_impairments=(iid_loss(0.02),)),
)


@pytest.fixture(scope="module")
def results():
    return [run_experiment(CONFIG, seed=seed) for seed in (11, 12)]


@pytest.fixture
def store(tmp_path):
    with ResultStore(tmp_path / "results.sqlite") as st:
        yield st


def _failure(name="poison", seed=99, rep=0):
    return RepFailure(
        name=name,
        label="quiche/cubic",
        rep=rep,
        seed=seed,
        error_type="WorkerCrashError",
        message="exit code 23",
        traceback="Traceback ...",
        attempts=3,
        wall_time_s=1.5,
        quarantined=True,
    )


class TestRecording:
    def test_rows_land_with_queryable_scalars(self, store, results):
        for rep, result in enumerate(results):
            store.record_result("quiche", rep, result)
        rows = store.query()
        assert [r["rep"] for r in rows] == [0, 1]
        assert [r["seed"] for r in rows] == [r.seed for r in results]
        for row, result in zip(rows, results):
            assert row["fingerprint"] == result.fingerprint()
            assert row["goodput_mbps"] == pytest.approx(result.goodput_mbps)
            assert row["stack"] == "quiche"
            assert row["kind"] == "experiment"
            assert 0.0 <= row["b2b_share"] <= 1.0

    def test_re_recording_is_idempotent(self, store, results):
        for _ in range(3):
            store.record_result("quiche", 0, results[0])
        assert store.rep_count() == 1
        fingerprint = store.content_fingerprint()
        store.record_result("quiche", 0, results[0])
        assert store.content_fingerprint() == fingerprint

    def test_failures_round_trip_and_success_supersedes(self, store, results):
        failure = _failure(name="quiche", seed=results[0].seed)
        store.record_failure(failure, CONFIG)
        assert store.failures() == [failure]
        assert store.names() == ["quiche"]
        # The same (config, seed) later succeeds (e.g. after --no-resume):
        # the stale failure row must not survive next to the success.
        store.record_result("quiche", 0, results[0])
        assert store.failure_count() == 0
        assert store.rep_count() == 1

    def test_a_failure_never_lands_beside_a_success(self, tmp_path, results):
        """Success then failure for one key stores what the success alone
        stores: the success supersedes the failure in either order."""
        digests = []
        for path, record_failure in (("alone", False), ("then", True)):
            with ResultStore(tmp_path / f"{path}.sqlite") as store:
                for rep, result in enumerate(results):
                    store.record_result("quiche", rep, result)
                if record_failure:
                    store.record_failure(_failure(name="quiche", seed=results[1].seed, rep=1), CONFIG)
                assert store.failure_count() == 0
                assert store.group_summaries()["quiche"]["failed"] == 0
                digests.append(store.content_fingerprint())
        assert digests[0] == digests[1]

    def test_precision_column_filled_when_expected_log_present(self, store):
        config = ExperimentConfig(stack="quiche", qdisc="etf", file_size=kib(96))
        result = run_experiment(config, seed=5)
        store.record_result("etf", 0, result)
        (row,) = store.query()
        if getattr(result, "expected_send_log", None):
            assert row["precision_ns"] is not None and row["precision_ns"] >= 0.0
        else:
            assert row["precision_ns"] is None


def _precision(store):
    return [row["precision_ns"] for row in store.query()]


def _blobs(store):
    return [row[0] for row in store._conn.execute("SELECT result FROM reps ORDER BY rep")]


#: The schema before the ``campaigns`` table.
V2_SCHEMA = store_module._SCHEMA.replace(store_module._CAMPAIGNS, "")
#: The schema before ``reps`` gained its ``result`` blob.
V1_SCHEMA = V2_SCHEMA.replace("    result              BLOB,\n", "")


def _copy(source, dest, schema=V1_SCHEMA, version=1):
    """``source``'s rows in a store built from ``schema`` (v1 by default)."""
    conn = sqlite3.connect(dest)
    conn.executescript(schema)
    conn.execute("ATTACH DATABASE ? AS source", (str(source),))
    for table in ("reps", "failures"):
        columns = ", ".join(row[1] for row in conn.execute(f"PRAGMA main.table_info({table})"))
        conn.execute(f"INSERT INTO {table} ({columns}) SELECT {columns} FROM source.{table}")
    conn.execute(f"PRAGMA user_version = {version}")
    conn.commit()
    conn.close()
    return dest


def _reversed_schema():
    """The current schema with the ``reps`` columns declared in reverse."""
    lines = store_module._SCHEMA.splitlines()
    start = lines.index("CREATE TABLE IF NOT EXISTS reps (") + 1
    end = lines.index("    PRIMARY KEY (config_key, seed)", start)
    return "\n".join(lines[:start] + lines[start:end][::-1] + lines[end:])


class TestConfirm:
    """A record of a row the store already holds is one lookup, no write."""

    def test_a_held_row_is_confirmed_by_one_select(self, store, results):
        store.record_result("quiche", 0, results[0])
        digest = store.content_fingerprint()
        statements = statement_log(store)
        with store.batch():
            store.record_result("quiche", 0, results[0])
        assert len(statements) == 1 and statements[0].startswith("SELECT")
        assert store.content_fingerprint() == digest

    def test_another_name_or_rep_rewrites_the_row(self, store, results):
        store.record_result("quiche", 0, results[0])
        precision = _precision(store)
        for name, rep in (("renamed", 0), ("renamed", 1)):
            statements = statement_log(store)
            store.record_result(name, rep, results[0])
            assert statements.count("COMMIT") == 1
            (row,) = store.query()
            assert (row["name"], row["rep"]) == (name, rep)
        assert _precision(store) == precision

    def test_a_null_precision_is_filled_and_never_erased(self, store, results):
        from repro.framework.artifacts import rep_to_dict

        payload = rep_to_dict(results[0])
        store._ingest_payload(name="quiche", label=CONFIG.label, rep=0, payload=payload)
        assert _precision(store) == [None]
        store.record_result("quiche", 0, results[0])  # measures it: rewritten
        (precision,) = _precision(store)
        assert precision is not None
        # Neither a confirming nor a rewriting payload without it erases it.
        for name in ("quiche", "renamed"):
            store._ingest_payload(name=name, label=CONFIG.label, rep=0, payload=payload)
            assert _precision(store) == [precision]

    def test_a_moved_fingerprint_is_reported_and_its_row_rewritten(self, tmp_path):
        """A repetition recomputed to another fingerprint than its row's, over
        a blob of the same config encoding, is a determinism regression: the
        store says so, and rewrites the row."""
        stream = io.StringIO()
        with ResultStore(tmp_path / "moved.sqlite", stream=stream) as store:
            run_repetitions(CONFIG, workers=1, store=store)
            expected = store.content_fingerprint()
            store._conn.execute("UPDATE reps SET fingerprint = 'moved' WHERE rep = 0")
            store._conn.commit()
            run_repetitions(CONFIG, workers=1, store=store)
            assert "moved" not in [row["fingerprint"] for row in store.query()]
            assert store.content_fingerprint() == expected
        assert stream.getvalue().splitlines() == [
            f"[store] warning: {CONFIG.label} rep 0 recomputed with a different "
            "fingerprint than the stored row (determinism regression?)"
        ]


class TestBatch:
    def test_one_commit_per_batch_and_per_write_outside(self, store, results):
        statements = statement_log(store)
        with store.batch():
            for rep, result in enumerate(results):
                store.record_result("quiche", rep, result)
            store.record_failure(_failure(), CONFIG)
        assert statements.count("COMMIT") == 1
        store.record_failure(_failure(seed=100), CONFIG)
        assert statements.count("COMMIT") == 2
        assert (store.rep_count(), store.failure_count()) == (2, 2)

    def test_an_exception_commits_the_rows_already_written(self, tmp_path, results):
        path = tmp_path / "interrupted.sqlite"
        with ResultStore(path) as store:
            with pytest.raises(KeyboardInterrupt):
                with store.batch():
                    store.record_result("quiche", 0, results[0])
                    raise KeyboardInterrupt
        with ResultStore(path) as reader:
            assert reader.rep_count() == 1


class TestSeeds:
    def test_full_64_bit_seed_range_round_trips(self, store):
        # derive_seed mixes into the full unsigned 64-bit range; the upper
        # half must survive SQLite's signed INTEGER (stored two's-complement).
        for seed in (0, 1, (1 << 63) - 1, 1 << 63, (1 << 64) - 1):
            failure = _failure(name=f"s-{seed}", seed=seed)
            store.record_failure(failure, CONFIG)
            (read,) = store.failures(f"s-{seed}")
            assert read.seed == seed

    def test_large_seed_results_query_back_exactly(self, store, results):
        from repro.framework.artifacts import rep_to_dict

        raw = dict(rep_to_dict(results[0]), seed=(1 << 64) - 3)
        store._ingest_payload(name="big", label="big", rep=0, payload=raw)
        (row,) = store.query(name="big")
        assert row["seed"] == (1 << 64) - 3
        assert store.payloads("big")[0]["seed"] == (1 << 64) - 3


class TestKeys:
    def test_live_and_json_config_keys_agree(self, results):
        payload_config = json.loads(json.dumps(dataclasses.asdict(results[0].config)))
        assert per_rep_key(results[0].config) == per_rep_key_from_dict(payload_config)

    def test_key_ignores_repetition_count(self):
        grown = dataclasses.replace(CONFIG, repetitions=20)
        assert per_rep_key(CONFIG) == per_rep_key(grown)

    def test_key_distinguishes_configs(self):
        assert per_rep_key(CONFIG) != per_rep_key(LOSSY)


class TestQuerying:
    @pytest.fixture
    def populated(self, store, results):
        for rep, result in enumerate(results):
            store.record_result("quiche", rep, result)
        store.record_result("lossy", 0, run_experiment(LOSSY, seed=7))
        return store

    def test_filters_restrict_rows(self, populated):
        assert len(populated.query()) == 3
        assert len(populated.query(stack="quiche")) == 2
        assert len(populated.query(name="lossy")) == 1
        assert len(populated.query(stack="quiche", qdisc="none")) == 2
        assert populated.query(stack="msquic") == []

    def test_impairment_filter_matches_slug_substring(self, populated):
        rows = populated.query(impairment="loss")
        assert [r["name"] for r in rows] == ["lossy"]
        assert populated.query(impairment="reorder") == []

    def test_unknown_filter_is_a_config_error(self, populated):
        with pytest.raises(ConfigError, match="unknown filter"):
            populated.query(stacks="quiche")

    def test_aggregate_mean_and_percentiles(self, populated, results):
        agg = populated.aggregate("goodput_mbps", stack="quiche")
        assert agg["n"] == 2
        values = sorted(r.goodput_mbps for r in results)
        assert agg["mean"] == pytest.approx(sum(values) / 2)
        assert agg["p50"] in values and agg["p99"] in values

    def test_aggregate_unknown_metric_is_a_config_error(self, populated):
        with pytest.raises(ConfigError, match="unknown metric"):
            populated.aggregate("wall_time_s")

    def test_aggregate_empty_selection(self, populated):
        agg = populated.aggregate("goodput_mbps", stack="msquic")
        assert agg == {"metric": "goodput_mbps", "n": 0}

    def test_names_keep_first_insertion_order(self, populated):
        assert populated.names() == ["quiche", "lossy"]
        populated.record_failure(_failure(name="poison"), CONFIG)
        assert populated.names() == ["quiche", "lossy", "poison"]

    def test_group_summaries_pool_shares_exactly_like_the_sweep_cli(
        self, populated, results
    ):
        groups = populated.group_summaries()
        grp = groups["quiche"]
        records = [r.server_records for r in results]
        assert grp["reps"] == 2
        assert grp["b2b_share"] == pytest.approx(
            fraction_leq(pooled_gaps(records), us(15)), abs=1e-12
        )
        assert grp["trains_leq5_share"] == pytest.approx(
            pooled_fraction_of_packets_in_trains_leq(records, 5), abs=1e-12
        )
        assert grp["failed"] == 0

    def test_group_summaries_filter_the_statistics_not_only_the_count(
        self, store, results
    ):
        # One completed and one cut-off repetition under one name: the
        # mean ± std must come from the rows the rep count comes from.
        cut_off = dataclasses.replace(results[1], completed=False, goodput_mbps=1.0)
        store.record_result("quiche", 0, results[0])
        store.record_result("quiche", 1, cut_off)
        grp = store.group_summaries(completed=True)["quiche"]
        assert grp["reps"] == 1
        assert grp["goodput"].n == 1
        assert grp["goodput"].mean == results[0].goodput_mbps
        assert grp["goodput"].std == 0.0
        assert grp["dropped"].n == 1
        both = store.group_summaries()["quiche"]
        assert both["reps"] == both["goodput"].n == 2

    def test_group_summaries_surface_all_failed_configs(self, store):
        store.record_failure(_failure(), CONFIG)
        groups = store.group_summaries()
        assert groups["poison"]["reps"] == 0
        assert groups["poison"]["failed"] == 1
        assert groups["poison"]["goodput"] is None


class TestConcurrency:
    def test_store_opens_in_wal_mode(self, store):
        (mode,) = store._conn.execute("PRAGMA journal_mode").fetchone()
        assert mode.lower() == "wal"

    def test_reader_queries_while_a_campaign_streams_in(self, tmp_path, results):
        """`repro store query/report` must work mid-campaign: WAL readers
        never block (or get blocked by) the campaign's writer connection."""
        import threading

        path = tmp_path / "live.sqlite"
        writer = ResultStore(path)
        writer.record_result("quiche", 0, results[0])
        errors = []
        stop = threading.Event()

        def read_loop():
            # Its own connection, like a separate `repro store query` process.
            try:
                reader = ResultStore(path)
                while not stop.is_set():
                    reader.query()
                    reader.content_fingerprint()
                reader.close()
            except Exception as exc:  # pragma: no cover - the failure path
                errors.append(exc)

        thread = threading.Thread(target=read_loop)
        thread.start()
        try:
            for _ in range(30):
                writer.record_result("quiche", 1, results[1])
                writer.record_failure(_failure(), CONFIG)
        finally:
            stop.set()
            thread.join()
        assert errors == []
        assert writer.rep_count() == 2
        assert writer.failure_count() == 1

    def test_locked_write_retries_until_the_lock_clears(self, tmp_path):
        """A write that hits `database is locked` retries with backoff instead
        of surfacing the OperationalError to the campaign."""
        import threading

        path = tmp_path / "contended.sqlite"
        store = ResultStore(path)
        # check_same_thread=False so the timer thread may release the lock.
        blocker = sqlite3.connect(str(path), check_same_thread=False)
        blocker.execute("PRAGMA busy_timeout = 0")
        blocker.execute("BEGIN IMMEDIATE")  # holds the write lock

        timer = threading.Timer(0.3, blocker.rollback)
        timer.start()
        try:
            store.record_failure(_failure(), CONFIG)  # must outlast the lock
        finally:
            timer.cancel()
            blocker.close()
        assert store.failure_count() == 1

    def test_lock_retry_is_bounded_not_infinite(self, tmp_path, monkeypatch):
        from repro.framework import store as store_module

        monkeypatch.setattr(store_module, "_LOCK_RETRY_BASE_S", 0.001)
        path = tmp_path / "stuck.sqlite"
        store = ResultStore(path)
        blocker = sqlite3.connect(str(path))
        blocker.execute("PRAGMA busy_timeout = 0")
        blocker.execute("BEGIN IMMEDIATE")
        store._conn.execute("PRAGMA busy_timeout = 0")  # keep the test fast
        try:
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                store.record_failure(_failure(), CONFIG)
        finally:
            blocker.rollback()
            blocker.close()


class TestVersioning:
    def test_newer_store_is_rejected_not_misread(self, tmp_path):
        path = tmp_path / "future.sqlite"
        ResultStore(path).close()
        conn = sqlite3.connect(str(path))
        conn.execute(f"PRAGMA user_version = {STORE_VERSION + 1}")
        conn.commit()
        conn.close()
        with pytest.raises(ConfigError, match="newer"):
            ResultStore(path)

    def test_reopening_preserves_rows(self, tmp_path, results):
        path = tmp_path / "persist.sqlite"
        with ResultStore(path) as store:
            store.record_result("quiche", 0, results[0])
            fingerprint = store.content_fingerprint()
        with ResultStore(path) as store:
            assert store.rep_count() == 1
            assert store.content_fingerprint() == fingerprint

    def test_a_v1_store_is_upgraded_in_place(self, tmp_path):
        """Opening a v1 store adds the empty ``result`` column; a warm sweep
        fills the blobs from the cache, and the content fingerprint never
        sees them."""
        cache = ResultCache(tmp_path / "cache")
        with ResultStore(tmp_path / "fresh.sqlite") as fresh:
            run_repetitions(CONFIG, workers=1, cache=cache, store=fresh)
            expected = fresh.content_fingerprint()
        old = _copy(tmp_path / "fresh.sqlite", tmp_path / "v1.sqlite")
        conn = sqlite3.connect(old)
        assert "result" not in [row[1] for row in conn.execute("PRAGMA table_info(reps)")]
        conn.close()
        with ResultStore(old) as store:
            assert store._conn.execute("PRAGMA user_version").fetchone()[0] == STORE_VERSION
            assert _blobs(store) == [None, None]
            assert store.content_fingerprint() == expected
            run_repetitions(CONFIG, workers=1, cache=cache, store=store)
            assert cache.stats.hits == 2
            assert None not in _blobs(store)
            assert store.content_fingerprint() == expected
        with ResultStore(old) as store:  # already upgraded: opened as is
            statements = statement_log(store)
            run_repetitions(CONFIG, workers=1, cache=cache, store=store)
            assert cache.stats.hits == 2 and statements.count("COMMIT") == 0

    def test_a_v2_store_is_upgraded_in_place_and_refused_as_a_part_until_then(self, tmp_path):
        """A v2 store gains an empty ``campaigns`` table on open, keeping its
        content fingerprint; until opened once, ``merge_from`` refuses it and
        says so. Upgraded, it merges as today: it holds no campaign row."""
        with ResultStore(tmp_path / "fresh.sqlite") as fresh:
            run_repetitions(CONFIG, workers=1, store=fresh)
            expected, blobs = fresh.content_fingerprint(), _blobs(fresh)
        old = _copy(tmp_path / "fresh.sqlite", tmp_path / "v2.sqlite", V2_SCHEMA, 2)
        with ResultStore(tmp_path / "dest.sqlite") as dest:
            with pytest.raises(ConfigError, match="schema version 2.*opening it once upgrades it"):
                dest.merge_from(old)
            assert dest.rep_count() == 0
        with ResultStore(old) as store:
            assert store._conn.execute("PRAGMA user_version").fetchone()[0] == STORE_VERSION
            assert store.content_fingerprint() == expected and _blobs(store) == blobs
            assert store.info()["campaigns"] == []
        with ResultStore(tmp_path / "dest.sqlite") as dest:
            with dest.campaign("f" * 64, (0, 2)):  # shards of some grid already merged
                pass
            dest.merge_from(old)
            assert dest.content_fingerprint() == expected

    def test_an_upgraded_and_a_fresh_store_merge_either_way(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        fresh = tmp_path / "fresh.sqlite"
        with ResultStore(fresh) as store:
            run_repetitions(CONFIG, workers=1, cache=cache, store=store)
            expected = store.content_fingerprint()
        upgraded = _copy(fresh, tmp_path / "v1.sqlite")
        with ResultStore(upgraded) as store:
            run_repetitions(CONFIG, workers=1, cache=cache, store=store)
        for order, parts in (("forward", [upgraded, fresh]), ("backward", [fresh, upgraded])):
            with ResultStore(tmp_path / f"{order}.sqlite") as merged:
                for part in parts:
                    merged.merge_from(part)
                assert merged.content_fingerprint() == expected
                with ResultStore(parts[-1]) as last:
                    assert _blobs(merged) == _blobs(last)
                assert None not in _blobs(merged)

    def test_merge_copies_columns_by_name(self, tmp_path):
        """A part whose columns sit in another order merges to the same rows."""
        source = tmp_path / "source.sqlite"
        with ResultStore(source) as store:
            run_repetitions(CONFIG, workers=1, store=store)
            expected, blobs = store.content_fingerprint(), _blobs(store)
        part = _copy(source, tmp_path / "reordered.sqlite", _reversed_schema(), STORE_VERSION)
        with ResultStore(tmp_path / "dest.sqlite") as dest:
            dest.merge_from(part)
            assert dest.content_fingerprint() == expected
            assert _blobs(dest) == blobs


class TestExport:
    def test_export_unknown_name_is_a_config_error(self, store):
        with pytest.raises(ConfigError, match="no repetitions named"):
            store.export_summary_dict("nope")

    def test_export_round_trips_through_json_file(self, store, results, tmp_path):
        for rep, result in enumerate(results):
            store.record_result("quiche", rep, result)
        path = store.export_summary_json("quiche", tmp_path / "out.json")
        data = json.loads(path.read_text())
        assert data["label"] == "quiche/cubic"
        assert [r["seed"] for r in data["repetitions"]] == [r.seed for r in results]


class TestMigration:
    def test_cache_migration_reproduces_the_live_store(self, tmp_path, results):
        cache = ResultCache(tmp_path / "cache")
        live = ResultStore(tmp_path / "live.sqlite")
        run_repetitions(CONFIG, workers=1, cache=cache, store=live)

        migrated = ResultStore(tmp_path / "migrated.sqlite")
        statements = statement_log(migrated)
        assert migrated.migrate_cache(cache.root) == 2
        assert statements.count("COMMIT") == 1  # one per source, not per entry
        # Cache entries key by label (the per-run grid name), as does the
        # single-config run above — content must match bit for bit.
        assert migrated.content_fingerprint() == live.content_fingerprint()

    def test_cache_migration_skips_unreadable_entries(self, tmp_path):
        root = tmp_path / "cache"
        (root / "ab").mkdir(parents=True)
        (root / "ab" / "abcd.pkl").write_bytes(pickle.dumps((999, None)))
        (root / "ab" / "torn.pkl").write_bytes(b"\x80not a pickle")
        stream = io.StringIO()
        store = ResultStore(tmp_path / "m.sqlite", stream=stream)
        assert store.migrate_cache(root) == 0
        warnings = stream.getvalue()
        assert warnings.count("[store] warning: skipped") == 2

    def test_cache_migration_skips_an_entry_with_a_flipped_body_byte(
        self, tmp_path, monkeypatch
    ):
        """Migration reads entries through the cache's own reader: a flipped
        bit is skipped on its digest (it would unpickle and validate), and
        the rest migrate under their stored fingerprints to the live rows."""
        from repro.framework.experiment import ExperimentResult

        cache = ResultCache(tmp_path / "cache")
        summary = run_repetitions(CONFIG, workers=1, cache=cache)
        flipped, kept = summary.results
        flip_capture_byte(cache._path(cache.entry_key(CONFIG, flipped.seed)), flipped)
        with ResultStore(tmp_path / "live.sqlite") as live:
            live.record_result(CONFIG.label, 1, kept)
            expected = live.content_fingerprint()

        monkeypatch.setattr(
            ExperimentResult, "fingerprint", lambda self: pytest.fail("migration re-digested")
        )
        stream = io.StringIO()
        with ResultStore(tmp_path / "migrated.sqlite", stream=stream) as migrated:
            assert migrated.migrate_cache(cache.root) == 1
            assert migrated.content_fingerprint() == expected
        warnings = stream.getvalue().splitlines()
        assert len(warnings) == 1
        assert warnings[0].startswith("[store] warning: skipped") and "digest" in warnings[0]

    def test_json_artifact_migration_matches_live_recording(
        self, tmp_path, results
    ):
        from repro.framework.artifacts import save_summary
        from repro.framework.runner import summarize_results

        # A third repetition failed: its record goes through the same writer
        # a live campaign's failures do.
        failure = _failure(name=CONFIG.label, seed=13, rep=2)
        summary = summarize_results(CONFIG, results, [failure])
        artifact = save_summary(summary, tmp_path / "a.json")

        live = ResultStore(tmp_path / "live.sqlite")
        for rep, result in enumerate(results):
            live.record_result(CONFIG.label, rep, result)
        live.record_failure(failure, CONFIG)

        migrated = ResultStore(tmp_path / "migrated.sqlite")
        statements = statement_log(migrated)
        assert migrated.ingest_summary_json(artifact) == 2
        assert statements.count("COMMIT") == 1
        assert migrated.failures() == [failure]
        # precision_ns, the one live-only column (it needs the expected-send
        # log), is outside the content fingerprint.
        assert migrated.content_fingerprint() == live.content_fingerprint()

    def test_cache_migration_fills_blobs_and_json_leaves_them_empty(self, tmp_path):
        from repro.framework.artifacts import save_summary

        cache = ResultCache(tmp_path / "cache")
        artifact = save_summary(
            run_repetitions(CONFIG, workers=1, cache=cache), tmp_path / "a.json"
        )
        with ResultStore(tmp_path / "json.sqlite") as from_json:
            from_json.ingest_summary_json(artifact)
            assert _blobs(from_json) == [None, None]
        with ResultStore(tmp_path / "cache.sqlite") as from_cache:
            from_cache.migrate_cache(cache.root)
            assert None not in _blobs(from_cache)
            # The migrated rows serve a sweep with no cache: nothing runs.
            stream = io.StringIO()
            run_repetitions(CONFIG, workers=1, store=from_cache, stream=stream)
            assert stream.getvalue().count("[cached]") == 2

    @pytest.mark.parametrize("cache_first", [True, False], ids=["cache-json", "json-cache"])
    def test_either_migration_order_keeps_precision(self, tmp_path, cache_first):
        from repro.framework.artifacts import save_summary

        cache = ResultCache(tmp_path / "cache")
        with ResultStore(tmp_path / "live.sqlite") as live:
            summary = run_repetitions(CONFIG, workers=1, cache=cache, store=live)
            precision, digest = _precision(live), live.content_fingerprint()
        assert None not in precision
        artifact = save_summary(summary, tmp_path / "a.json")
        with ResultStore(tmp_path / "migrated.sqlite") as migrated:
            sources = [
                lambda: migrated.migrate_cache(cache.root),
                lambda: migrated.ingest_summary_json(artifact),
            ]
            for migrate in sources if cache_first else sources[::-1]:
                assert migrate() == 2
            assert _precision(migrated) == precision
            assert migrated.content_fingerprint() == digest
