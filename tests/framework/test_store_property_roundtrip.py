"""Randomized round-trip properties for store serialization.

In the style of ``tests/quic/test_property_roundtrip.py``: corpora come from
a seeded ``random.Random`` so failures reproduce exactly. The store's
serialization seam is the result (each row's blob) plus
:class:`~repro.framework.supervision.RepFailure`; every generated result must
read back as its own canonical JSON form
(:func:`repro.framework.artifacts.rep_to_dict`) through write → read →
export-to-JSON, the derived scalar columns must stay consistent with that
form, and the content fingerprint must be a pure function of content
(insertion order, re-recording, and process restarts are invisible).
"""

import dataclasses
import hashlib
import json
import random
from array import array

import pytest

from repro.framework.artifacts import rep_to_dict
from repro.framework.config import ExperimentConfig, NetworkConfig
from repro.framework.experiment import ExperimentResult
from repro.framework.population import PopulationConfig, run_population
from repro.framework.store import ResultStore
from repro.framework.supervision import RepFailure
from repro.metrics.precision import pacing_precision_ns
from repro.net.impairments import iid_loss, reordering
from repro.net.tap import CaptureColumns
from repro.sim.random import derive_seed
from repro.stacks.base import SendLog
from repro.units import kib, seconds, us

RNG_SEED = 20250807

STACKS = ("quiche", "picoquic", "ngtcp2", "tcp")
CCAS = ("cubic", "newreno", "bbr", "bbr2")
QDISCS = ("none", "fq", "etf", "etf-offload")
GSO = ("off", "on", "paced")
FLOW = ("10.0.0.1", 443, "10.0.0.2", 40000)


def _random_config(rng) -> ExperimentConfig:
    impairments = rng.choice(
        ((), (iid_loss(round(rng.uniform(0.001, 0.1), 4)),), (reordering(rate=0.01),))
    )
    return ExperimentConfig(
        stack=rng.choice(STACKS),
        cca=rng.choice(CCAS),
        qdisc=rng.choice(QDISCS),
        gso=rng.choice(GSO),
        file_size=rng.randrange(1, 1 << 24),
        repetitions=rng.randrange(1, 6),
        seed=rng.randrange(1, 1 << 48),
        network=NetworkConfig(forward_impairments=impairments),
    )


def _config_dict(config) -> dict:
    return json.loads(json.dumps(dataclasses.asdict(config)))


def _random_capture(rng, packets: int) -> CaptureColumns:
    """One flow's capture whose gaps are back-to-back (<= 15 us) or not."""
    cols = CaptureColumns()
    time = rng.randrange(0, 1 << 30)
    for pn in range(packets):
        cols.time_ns.append(time)
        back_to_back = rng.random() < 0.5
        time += rng.randrange(0, us(15) + 1) if back_to_back else rng.randrange(us(16), us(2000))
    cols.wire_size.extend(array("q", [1294] * packets))
    cols.payload_size.extend(array("q", [1252] * packets))
    cols.packet_number.extend(array("q", range(packets)))
    cols.dgram_id.extend(array("q", range(packets)))
    cols.gso_id.extend(array("q", [-1] * packets))
    cols.flow_index.extend(array("q", [0] * packets))
    cols.flows.append(FLOW)
    return cols


def _random_experiment(rng, config, seed: int, max_packets: int = 600) -> ExperimentResult:
    return ExperimentResult(
        config=config,
        seed=seed,
        completed=rng.random() < 0.9,
        duration_ns=rng.randrange(1, 1 << 40),
        goodput_mbps=rng.uniform(0.01, 9500.0),
        dropped=rng.randrange(0, 100),
        server_records=_random_capture(rng, rng.randrange(2, max_packets)),
        expected_send_log=SendLog(),
        qdisc_stats={"enqueued": rng.randrange(0, 10_000)},
        server_stats={"received": rng.randrange(0, 10_000)},
        injected_drops=rng.randrange(0, 50),
        impairment_stats={"injected": rng.randrange(0, 50)},
    )


@pytest.fixture(scope="module")
def population():
    """One small population run; the corpus varies its config and seed."""
    config = PopulationConfig(
        flows=4, arrival_rate_per_s=200.0, file_size=kib(16),
        profiles=("quiche:cubic", "tcp"), max_sim_time_ns=seconds(60),
    )
    return run_population(config, seed=1)


def _random_population(rng, base, seed: int):
    config = dataclasses.replace(
        base.config, seed=rng.randrange(1, 1 << 48), repetitions=rng.randrange(1, 6)
    )
    return dataclasses.replace(base, config=config, seed=seed)


def _random_failure(rng, name: str, seed: int) -> RepFailure:
    messages = ("exit code 23", "deadline exceeded", "péché véniel\nline two", "")
    return RepFailure(
        name=name,
        label=name,
        rep=rng.randrange(0, 6),
        seed=seed,
        error_type=rng.choice(("WorkerCrashError", "RepTimeoutError", "ValidationError")),
        message=rng.choice(messages),
        traceback="Traceback (most recent call last):\n  ..." * rng.randrange(0, 3),
        attempts=rng.randrange(1, 5),
        wall_time_s=rng.uniform(0, 600),
        quarantined=rng.random() < 0.3,
    )


def _corpus(population, seed_offset: int, groups: int = 12):
    """[(name, config, [result...])]: unique (config, seed) keys by construction."""
    rng = random.Random(RNG_SEED + seed_offset)
    corpus = []
    for index in range(groups):
        seeds = rng.sample(range(1, 1 << 32), rng.randrange(1, 4))
        if index % 3 == 2:
            results = [_random_population(rng, population, seed) for seed in seeds]
            config = results[0].config
        else:
            config = _random_config(rng)
            results = [_random_experiment(rng, config, seed) for seed in seeds]
        corpus.append((f"grp-{index}", config, results))
    return corpus


def _record(store, corpus):
    for name, _, results in corpus:
        for rep, result in enumerate(results):
            store.record_result(name, rep, result)


class TestPayloadRoundTrip:
    def test_write_read_is_the_identity(self, tmp_path, population):
        corpus = _corpus(population, 0)
        with ResultStore(tmp_path / "s.sqlite") as store:
            _record(store, corpus)
            for name, _, results in corpus:
                assert store.payloads(name) == [rep_to_dict(r) for r in results]

    def test_export_to_json_file_round_trips(self, tmp_path, population):
        corpus = _corpus(population, 1, groups=6)
        with ResultStore(tmp_path / "s.sqlite") as store:
            _record(store, corpus)
            for name, _, results in corpus:
                path = store.export_summary_json(name, tmp_path / f"{name}.json")
                data = json.loads(path.read_text())
                payloads = json.loads(json.dumps([rep_to_dict(r) for r in results]))
                assert data["repetitions"] == payloads
                goodputs = [r.goodput_mbps for r in results]
                assert data["goodput_mbps"]["mean"] == pytest.approx(
                    sum(goodputs) / len(goodputs)
                )

    def test_scalar_columns_stay_consistent_with_the_payload(self, tmp_path, population):
        corpus = _corpus(population, 2)
        with ResultStore(tmp_path / "s.sqlite") as store:
            _record(store, corpus)
            for name, config, results in corpus:
                rows = store.query(name=name)
                assert len(rows) == len(results)
                for row, result in zip(rows, results):
                    payload = rep_to_dict(result)
                    assert row["seed"] == payload["seed"]
                    assert row["fingerprint"] == payload["fingerprint"]
                    assert row["completed"] == int(payload["completed"])
                    if "aggregate_goodput_mbps" in payload:
                        assert row["kind"] == "population"
                        assert row["goodput_mbps"] == payload["aggregate_goodput_mbps"]
                        assert row["flows"] == payload["flows"]
                        assert row["b2b_share"] is None
                    else:
                        assert row["kind"] == "experiment"
                        assert row["goodput_mbps"] == payload["goodput_mbps"]
                        metrics = payload["metrics"]
                        assert row["b2b_share"] == metrics["back_to_back_share"]
                        assert row["trains_leq5_share"] == metrics["trains_leq5_share"]
                        assert row["stack"] == config.stack

    def test_b2b_count_recovery_is_exact(self, tmp_path):
        # The share is stored as a float but derived from integer counts;
        # round(share * gap_count) must recover the capture's exact count.
        rng = random.Random(RNG_SEED + 100)
        with ResultStore(tmp_path / "s.sqlite") as store:
            config = _random_config(rng)
            for rep, seed in enumerate(rng.sample(range(1, 1 << 31), 200)):
                result = _random_experiment(rng, config, seed, max_packets=5000)
                store.record_result("x", rep, result)
                times = result.server_records.time_ns
                gaps = [b - a for a, b in zip(times, times[1:])]
                row = store._conn.execute(
                    "SELECT gap_count, b2b_count FROM reps WHERE seed = ?", (seed,)
                ).fetchone()
                assert row["gap_count"] == len(gaps)
                assert row["b2b_count"] == sum(gap <= us(15) for gap in gaps)


class TestSendLogRoundTrip:
    def test_a_columnar_send_log_survives_the_blob(self, tmp_path):
        """A row's blob serves the expected-send log back as the columns it
        was recorded with, and its ``precision_ns`` column is the metric of
        that log and the capture."""
        rng = random.Random(RNG_SEED + 500)
        config = _random_config(rng)
        recorded = {}
        with ResultStore(tmp_path / "s.sqlite") as store:
            for rep in range(4):
                result = _random_experiment(rng, config, derive_seed(config.seed, rep))
                cols = result.server_records
                result.expected_send_log = SendLog(
                    (pn, time - rng.randrange(us(50)))
                    for pn, time in zip(cols.packet_number, cols.time_ns)
                    if rng.random() < 0.9
                )
                store.record_result("n", rep, result)
                recorded[rep] = result
            served = store.served("n", config, sorted(recorded))
            rows = {row["rep"]: row for row in store.query(name="n")}
        assert sorted(served) == sorted(recorded)
        for rep, result in recorded.items():
            log = served[rep].expected_send_log
            assert isinstance(log, SendLog) and log == result.expected_send_log
            assert rows[rep]["precision_ns"] == pacing_precision_ns(log, result.server_records)


class TestFailureRoundTrip:
    def test_failures_survive_write_read(self, tmp_path):
        rng = random.Random(RNG_SEED + 200)
        with ResultStore(tmp_path / "s.sqlite") as store:
            expected = []
            for index in range(40):
                config = _random_config(rng)
                failure = _random_failure(rng, f"f-{index}", rng.randrange(1, 1 << 32))
                store.record_failure(failure, config)
                expected.append(failure)
            expected.sort(key=lambda f: (f.name, f.rep, f.seed))
            assert store.failures() == expected

    def test_failure_export_round_trips_as_dict(self, tmp_path):
        rng = random.Random(RNG_SEED + 201)
        with ResultStore(tmp_path / "s.sqlite") as store:
            config = _random_config(rng)
            store.record_result("n", 0, _random_experiment(rng, config, config.seed))
            failure = _random_failure(rng, "n", config.seed + 1)
            store.record_failure(failure, config)
            exported = store.export_summary_dict("n")
            assert exported["failures"] == [failure.as_dict()]
            assert RepFailure.from_dict(exported["failures"][0]) == failure


class TestContentIdentity:
    def test_fingerprint_ignores_insertion_order(self, tmp_path, population):
        corpus = _corpus(population, 3)
        ordered = ResultStore(tmp_path / "a.sqlite")
        _record(ordered, corpus)
        shuffled = ResultStore(tmp_path / "b.sqlite")
        flat = [
            (name, rep, result)
            for name, _, results in corpus
            for rep, result in enumerate(results)
        ]
        random.Random(RNG_SEED + 300).shuffle(flat)
        for name, rep, result in flat:
            shuffled.record_result(name, rep, result)
        assert shuffled.content_fingerprint() == ordered.content_fingerprint()
        assert shuffled.rep_count() == ordered.rep_count()

    def test_fingerprint_stable_under_re_ingestion(self, tmp_path, population):
        corpus = _corpus(population, 4, groups=6)
        with ResultStore(tmp_path / "s.sqlite") as store:
            _record(store, corpus)
            digest = store.content_fingerprint()
            count = store.rep_count()
            _record(store, corpus)  # a resumed campaign recording again
            assert store.content_fingerprint() == digest
            assert store.rep_count() == count

    def test_fingerprint_survives_reopen(self, tmp_path, population):
        corpus = _corpus(population, 5, groups=4)
        path = tmp_path / "s.sqlite"
        with ResultStore(path) as store:
            _record(store, corpus)
            digest = store.content_fingerprint()
        with ResultStore(path) as store:
            assert store.content_fingerprint() == digest

    def test_per_rep_key_matches_payload_derived_key(self):
        """The key of a config is the hash of its JSON form's (an export's)
        canonical encoding, with ``repetitions`` normalized."""
        rng = random.Random(RNG_SEED + 400)
        for _ in range(50):
            config = _random_config(rng)
            normalized = json.dumps(dict(_config_dict(config), repetitions=1), sort_keys=True)
            assert hashlib.sha256(normalized.encode()).hexdigest() == config.per_rep.cache_key()
