"""Randomized round-trip properties for store serialization.

In the style of ``tests/quic/test_property_roundtrip.py``: corpora come from
a seeded ``random.Random`` so failures reproduce exactly. The store's
serialization seam is the canonical repetition payload
(:func:`repro.framework.artifacts.rep_to_dict` output) plus
:class:`~repro.framework.supervision.RepFailure`; every generated value must
survive write → read → export-to-JSON unchanged, the derived scalar columns
must stay consistent with the payload they were derived from, and the
content fingerprint must be a pure function of content (insertion order,
re-ingestion, and process restarts are invisible).
"""

import dataclasses
import json
import random

import pytest

from repro.framework.config import ExperimentConfig, NetworkConfig
from repro.framework.store import ResultStore, per_rep_key
from repro.framework.supervision import RepFailure
from repro.net.impairments import iid_loss, reordering

RNG_SEED = 20250807

STACKS = ("quiche", "picoquic", "ngtcp2", "tcp")
CCAS = ("cubic", "newreno", "bbr", "bbr2")
QDISCS = ("none", "fq", "etf", "etf-offload")
GSO = ("off", "on", "paced")


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


def _random_histogram(rng) -> dict:
    lengths = rng.sample(range(1, 40), rng.randrange(1, 8))
    return {str(length): rng.randrange(1, 500) for length in sorted(lengths)}


def _random_experiment_payload(rng, config, seed: int) -> dict:
    packets = rng.randrange(2, 5000)
    gap_count = packets - 1
    b2b_count = rng.randrange(0, gap_count + 1)
    trains = _random_histogram(rng)
    total = sum(trains.values())
    leq5 = sum(v for k, v in trains.items() if int(k) <= 5)
    return {
        "config": _config_dict(config),
        "seed": seed,
        "fingerprint": "%064x" % rng.getrandbits(256),
        "completed": rng.random() < 0.9,
        "duration_ns": rng.randrange(1, 1 << 40),
        "goodput_mbps": rng.uniform(0.01, 9500.0),
        "dropped": rng.randrange(0, 100),
        "injected_drops": rng.randrange(0, 50),
        "impairment_stats": {"injected": rng.randrange(0, 50)},
        "packets_on_wire": packets,
        "qdisc_stats": {"enqueued": rng.randrange(0, 10_000)},
        "server_stats": {"received": packets},
        "metrics": {
            "back_to_back_share": b2b_count / gap_count if gap_count else 0.0,
            "trains_leq5_share": leq5 / total,
            "packets_by_train_length": trains,
        },
    }


def _random_distribution(rng) -> dict:
    return {
        "mean": rng.uniform(0, 100),
        "p50": rng.uniform(0, 100),
        "p90": rng.uniform(0, 100),
        "p99": rng.uniform(0, 100),
    }


def _random_population_payload(rng, config, seed: int) -> dict:
    flows = rng.randrange(1, 400)
    return {
        "config": _config_dict(config),
        "seed": seed,
        "fingerprint": "%064x" % rng.getrandbits(256),
        "completed": rng.random() < 0.9,
        "flows": flows,
        "completed_flows": rng.randrange(0, flows + 1),
        "duration_ns": rng.randrange(1, 1 << 40),
        "aggregate_goodput_mbps": rng.uniform(0.01, 9500.0),
        "dropped": rng.randrange(0, 5000),
        "injected_drops": rng.randrange(0, 500),
        "ack_drops": rng.randrange(0, 500),
        "unrouted": 0,
        "fairness": rng.random(),
        "metrics": {
            "goodput_mbps": _random_distribution(rng),
            "fct_ms": _random_distribution(rng),
            "loss": _random_distribution(rng),
        },
        "per_profile": {
            "quiche/cubic": {"flows": flows, "goodput_mbps_mean": rng.uniform(0, 10)}
        },
        "ratio_matrix": [[rng.random() for _ in range(2)] for _ in range(2)],
        "beats": [["quiche/cubic", "tcp/cubic"]] if rng.random() < 0.5 else [],
        "transitivity_violations": [],
    }


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


def _corpus(seed_offset: int, groups: int = 12):
    """[(name, [payload...])]: unique (config, seed) keys by construction."""
    rng = random.Random(RNG_SEED + seed_offset)
    corpus = []
    for index in range(groups):
        config = _random_config(rng)
        generator = (
            _random_population_payload if index % 3 == 2 else _random_experiment_payload
        )
        seeds = rng.sample(range(1, 1 << 32), rng.randrange(1, 4))
        payloads = [generator(rng, config, seed) for seed in seeds]
        corpus.append((f"grp-{index}", config, payloads))
    return corpus


def _ingest(store, corpus):
    for name, config, payloads in corpus:
        for rep, payload in enumerate(payloads):
            store._ingest_payload(name=name, label=config.label, rep=rep, payload=payload)


class TestPayloadRoundTrip:
    def test_write_read_is_the_identity(self, tmp_path):
        corpus = _corpus(0)
        with ResultStore(tmp_path / "s.sqlite") as store:
            _ingest(store, corpus)
            for name, _, payloads in corpus:
                assert store.payloads(name) == payloads

    def test_export_to_json_file_round_trips(self, tmp_path):
        corpus = _corpus(1, groups=6)
        with ResultStore(tmp_path / "s.sqlite") as store:
            _ingest(store, corpus)
            for name, _, payloads in corpus:
                path = store.export_summary_json(name, tmp_path / f"{name}.json")
                data = json.loads(path.read_text())
                assert data["repetitions"] == payloads
                goodputs = [
                    p.get("aggregate_goodput_mbps", p.get("goodput_mbps"))
                    for p in payloads
                ]
                assert data["goodput_mbps"]["mean"] == pytest.approx(
                    sum(goodputs) / len(goodputs)
                )

    def test_scalar_columns_stay_consistent_with_the_payload(self, tmp_path):
        corpus = _corpus(2)
        with ResultStore(tmp_path / "s.sqlite") as store:
            _ingest(store, corpus)
            for name, config, payloads in corpus:
                rows = store.query(name=name)
                assert len(rows) == len(payloads)
                for row, payload in zip(rows, payloads):
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
        # round(share * gap_count) must recover the generator's exact count.
        rng = random.Random(RNG_SEED + 100)
        with ResultStore(tmp_path / "s.sqlite") as store:
            config = _random_config(rng)
            for rep, seed in enumerate(rng.sample(range(1, 1 << 31), 200)):
                payload = _random_experiment_payload(rng, config, seed)
                store._ingest_payload(name="x", label="x", rep=rep, payload=payload)
                share = payload["metrics"]["back_to_back_share"]
                gaps = payload["packets_on_wire"] - 1
                row = store._conn.execute(
                    "SELECT gap_count, b2b_count FROM reps WHERE seed = ?", (seed,)
                ).fetchone()
                assert row["gap_count"] == gaps
                assert row["b2b_count"] == round(share * gaps)


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
            payload = _random_experiment_payload(rng, config, config.seed)
            store._ingest_payload(name="n", label=config.label, rep=0, payload=payload)
            failure = _random_failure(rng, "n", config.seed + 1)
            store.record_failure(failure, config)
            exported = store.export_summary_dict("n")
            assert exported["failures"] == [failure.as_dict()]
            assert RepFailure.from_dict(exported["failures"][0]) == failure


class TestContentIdentity:
    def test_fingerprint_ignores_insertion_order(self, tmp_path):
        corpus = _corpus(3)
        ordered = ResultStore(tmp_path / "a.sqlite")
        _ingest(ordered, corpus)
        shuffled = ResultStore(tmp_path / "b.sqlite")
        flat = [
            (name, config, rep, payload)
            for name, config, payloads in corpus
            for rep, payload in enumerate(payloads)
        ]
        random.Random(RNG_SEED + 300).shuffle(flat)
        for name, config, rep, payload in flat:
            shuffled._ingest_payload(
                name=name, label=config.label, rep=rep, payload=payload
            )
        assert shuffled.content_fingerprint() == ordered.content_fingerprint()
        assert shuffled.rep_count() == ordered.rep_count()

    def test_fingerprint_stable_under_re_ingestion(self, tmp_path):
        corpus = _corpus(4, groups=6)
        with ResultStore(tmp_path / "s.sqlite") as store:
            _ingest(store, corpus)
            digest = store.content_fingerprint()
            count = store.rep_count()
            _ingest(store, corpus)  # a resumed campaign recording again
            assert store.content_fingerprint() == digest
            assert store.rep_count() == count

    def test_fingerprint_survives_reopen(self, tmp_path):
        corpus = _corpus(5, groups=4)
        path = tmp_path / "s.sqlite"
        with ResultStore(path) as store:
            _ingest(store, corpus)
            digest = store.content_fingerprint()
        with ResultStore(path) as store:
            assert store.content_fingerprint() == digest

    def test_per_rep_key_matches_payload_derived_key(self):
        rng = random.Random(RNG_SEED + 400)
        for _ in range(50):
            config = _random_config(rng)
            payload_key = per_rep_key(config)
            from repro.framework.store import per_rep_key_from_dict

            assert per_rep_key_from_dict(_config_dict(config)) == payload_key
