"""Flow populations: generation, determinism, sweep integration, scale."""

import io
import json
import tempfile
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.framework.config import NetworkConfig
from repro.framework.multiflow import flow_config
from repro.framework.population import (
    FlowPopulation,
    PopulationConfig,
    parse_profile,
    run_population,
)
from repro.sim.random import derive_seed
from repro.units import kib, mib, ms, seconds
from tests.framework.test_fingerprint_encoding import old_fingerprint


def small_config(**kwargs):
    kwargs.setdefault("flows", 16)
    kwargs.setdefault("arrival_rate_per_s", 200.0)
    kwargs.setdefault("file_size", kib(32))
    kwargs.setdefault("profiles", ("quiche:cubic", "tcp"))
    kwargs.setdefault("max_sim_time_ns", seconds(120))
    return PopulationConfig(**kwargs)


# -- profile parsing ---------------------------------------------------------


def test_parse_profile_defaults():
    profile = parse_profile("quiche")
    assert (profile.stack, profile.cca, profile.qdisc, profile.gso) == (
        "quiche", "cubic", "none", "off",
    )


def test_parse_profile_full():
    profile = parse_profile("quiche:bbr:fq:paced")
    assert profile.label == "quiche/bbr/fq/gso-paced"


def test_parse_profile_params_round_trip():
    profile = parse_profile("quiche:cubic:fq+spurious_rollback=false")
    assert profile.params == (("spurious_rollback", False),)
    assert profile.label == "quiche/cubic/fq/spurious_rollback=false"
    assert flow_config(profile, NetworkConfig()).params == profile.params
    acks = parse_profile("quiche+client_max_ack_delay_ns=5000000+client_ack_threshold=8")
    assert acks.params == (("client_ack_threshold", 8), ("client_max_ack_delay_ns", 5_000_000))
    assert acks.label == "quiche/cubic/client_ack_threshold=8/client_max_ack_delay_ns=5000000"


@pytest.mark.parametrize(
    "bad",
    ["", "nosuchstack", "quiche:cubic:fq:paced:extra", "tcp:cubic:none:on", "tcp:nonsense",
     "quiche+", "quiche+x=1", "quiche+bucket_packets=abc", "quiche+spurious_rollback=no",
     "quiche+spurious_rollback=true", "tcp+pacing=none"],
)
def test_parse_profile_rejects(bad):
    with pytest.raises(ConfigError):
        parse_profile(bad)


# -- config validation -------------------------------------------------------


def test_config_validates():
    small_config().validate()


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(flows=0),
        dict(flows=100_000),
        dict(arrival="tides"),
        dict(arrival_rate_per_s=0.0),
        dict(arrival="trace"),  # no times supplied
        dict(arrival="trace", arrival_times_ns=(0, -1) + (0,) * 14),
        dict(size_dist="zipf"),
        dict(file_size=0),
        dict(min_file_size=0),
        dict(profiles=()),
        dict(profiles=("nosuchstack",)),
        dict(profiles=("quiche:nonsense",)),
        dict(repetitions=0),
        dict(extra_rtt_max_ns=-1),
    ],
)
def test_config_rejects(kwargs):
    with pytest.raises(ConfigError):
        small_config(**kwargs).validate()


def test_cache_key_covers_every_field():
    base = small_config()
    assert base.cache_key() != small_config(flows=17).cache_key()
    assert base.cache_key() != small_config(extra_rtt_max_ns=ms(1)).cache_key()
    assert base.cache_key() == small_config().cache_key()


# -- generation --------------------------------------------------------------


def test_generator_is_deterministic():
    config = small_config(size_dist="exp", extra_rtt_max_ns=ms(30))
    assert FlowPopulation(config).specs(7) == FlowPopulation(config).specs(7)
    assert FlowPopulation(config).specs(7) != FlowPopulation(config).specs(8)


def test_profiles_assigned_round_robin():
    specs = FlowPopulation(small_config(flows=10)).specs(1)
    stacks = [s.stack for s in specs]
    assert stacks.count("quiche") == 5
    assert stacks.count("tcp") == 5


def test_poisson_arrivals_are_increasing():
    specs = FlowPopulation(small_config(flows=50)).specs(3)
    starts = [s.start_ns for s in specs]
    assert starts == sorted(starts)
    assert starts[-1] > starts[0]


def test_uniform_arrivals_are_evenly_spaced():
    specs = FlowPopulation(small_config(arrival="uniform", arrival_rate_per_s=100.0)).specs(1)
    gaps = {b.start_ns - a.start_ns for a, b in zip(specs, specs[1:])}
    assert gaps == {ms(10)}


def test_trace_arrivals_are_exact():
    times = tuple(ms(5) * i for i in range(16))
    specs = FlowPopulation(small_config(arrival="trace", arrival_times_ns=times)).specs(1)
    assert tuple(s.start_ns for s in specs) == times


def test_exp_sizes_respect_floor_and_vary():
    config = small_config(size_dist="exp", file_size=kib(64), min_file_size=kib(16))
    sizes = [s.file_size for s in FlowPopulation(config).specs(1)]
    assert all(size >= kib(16) for size in sizes)
    assert len(set(sizes)) > 1


def test_extra_rtt_draws_bounded():
    config = small_config(extra_rtt_max_ns=ms(25))
    rtts = [s.extra_rtt_ns for s in FlowPopulation(config).specs(1)]
    assert all(0 <= r <= ms(25) for r in rtts)
    assert len(set(rtts)) > 1


# -- execution ---------------------------------------------------------------


def test_population_run_completes_and_validates():
    result = run_population(small_config())
    assert result.completed
    assert result.completed_count == 16
    assert result.multi.unrouted == 0
    result.multi.validate()
    from repro.framework.validate import validate_result

    validate_result(result)  # dispatches to validate_population


def test_population_capture_stays_columnar():
    result = run_population(small_config())
    assert all(not f.records for f in result.multi.flows)
    assert all(f.wire_packets > 0 for f in result.multi.flows)


def test_per_profile_partition_and_distributions():
    result = run_population(small_config())
    assert sum(int(p["flows"]) for p in result.per_profile.values()) == 16
    assert set(result.goodput_dist) == {"mean", "p50", "p90", "p99"}
    assert result.goodput_dist["p50"] <= result.goodput_dist["p99"]
    assert 0.0 <= result.fairness <= 1.0


def test_incomplete_population_reports_delivered_goodput():
    config = small_config(file_size=mib(8), max_sim_time_ns=seconds(1))
    result = run_population(config)
    assert not result.completed
    stalled = [f for f in result.multi.flows if not f.completed]
    assert stalled
    assert all(f.bytes_received < f.spec.file_size for f in stalled)
    # Delivered-bytes goodput respects the bottleneck; the old full-file
    # accounting would report absurd rates for cut-off flows.
    assert all(f.goodput_mbps < 45 for f in stalled)
    result.multi.validate()


def test_a_population_flow_traces_qlog_without_moving_the_digest():
    """A flow of a population is traced through its own config (``qlog``):
    the trace survives churn teardown, holds that flow's packets and the
    shared stages' drops of its datagrams only, and the run digests as the
    untraced one."""
    from dataclasses import replace

    from repro.framework.multiflow import MultiFlowExperiment
    from repro.framework.population import aggregate_population
    from repro.net.impairments import iid_loss

    net = NetworkConfig(
        forward_impairments=(iid_loss(0.1),), reverse_impairments=(iid_loss(0.1),)
    )
    config = small_config(network=net, churn=True)
    specs = FlowPopulation(config).specs(config.seed)
    configs = [flow_config(spec, net) for spec in specs]
    traced = 2  # a quiche flow, not flow 0
    configs[traced] = replace(configs[traced], qlog=True)
    experiment = MultiFlowExperiment(
        specs,
        network=net,
        seed=config.seed,
        max_sim_time_ns=config.max_sim_time_ns,
        capture_records=config.capture_records,
        churn=config.churn,
        configs=configs,
    )
    result = aggregate_population(config, config.seed, experiment.run())
    trace = experiment.flows[traced].qlog
    flow = result.multi.flows[traced]
    assert all(f.qlog is None for i, f in enumerate(experiment.flows) if i != traced)
    assert len(trace.of_type("transport:packet_sent")) == flow.server_stats["packets_sent"] > 0
    drops = trace.of_type("network:injected_drop")
    assert len(drops) == flow.injected_drops + flow.ack_drops
    assert flow.injected_drops > 0 and flow.ack_drops > 0
    assert result.fingerprint() == run_population(config).fingerprint()


def test_ratio_matrix_and_beats_consistent():
    result = run_population(small_config(flows=20))
    labels = sorted(result.per_profile)
    assert set(result.ratio_matrix) == set(labels)
    for winner, loser in result.beats:
        assert result.ratio_matrix[winner][loser] > 1.05
    # Within one population the relation comes from one goodput per profile,
    # so it is transitive by construction.
    assert result.transitivity == []


# -- determinism and sweep integration ---------------------------------------


def test_deterministic_fingerprint_serial_vs_swept():
    from repro.framework.cache import ResultCache
    from repro.framework.sweep import SweepRunner

    config = small_config(repetitions=2, seed=5)
    serial = [
        run_population(config, seed=derive_seed(config.seed, rep)).fingerprint()
        for rep in range(2)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(root=Path(tmp) / "cache")
        runner = SweepRunner(workers=2, cache=cache, journal_dir=Path(tmp) / "j")
        summary = runner.run({"pop": config})["pop"]
        assert not summary.failures
        assert [r.fingerprint() for r in summary.results] == serial
        # Second invocation resumes entirely from its checkpoint, bit-identically.
        stream = io.StringIO()
        rerun = SweepRunner(workers=2, cache=cache, journal_dir=Path(tmp) / "j", stream=stream)
        cached = rerun.run({"pop": config})["pop"]
        assert [r.fingerprint() for r in cached.results] == serial
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2 and all(line.endswith("[cached]") for line in lines)
        assert cache.stats.stores == 2  # the first invocation's: none computed since


def test_population_artifact_roundtrip():
    from repro.framework.artifacts import population_result_to_dict

    result = run_population(small_config())
    artifact = population_result_to_dict(result)
    encoded = json.loads(json.dumps(artifact))
    assert encoded["fingerprint"] == result.fingerprint()
    assert encoded["completed_flows"] == 16
    assert encoded["unrouted"] == 0


def test_gso_duel_is_a_competition():
    # Fig 6 / Table 2 as a duel: two senders that differ only in GSO mode
    # are two profiles, not one.
    from repro.framework.scenarios import fairness_duels

    grid = fairness_duels(
        profiles=("quiche:cubic:fq", "quiche:cubic:fq:paced"), file_size=kib(256)
    )
    results = {name: run_population(cfg) for name, cfg in grid.items()}
    (result,) = results.values()
    assert sorted(result.per_profile) == ["quiche/cubic/fq", "quiche/cubic/fq/gso-paced"]
    assert set(result.ratio_matrix) == set(result.per_profile)


#: The 200-flow mixed population (`population` of benchmarks/bench at its
#: default scale), seed 1, plain and with churn. ``GOLDEN_*`` is the behaviour
#: digest ``fingerprint()`` takes; ``*_OLD`` the config-inclusive oracle's
#: digest of the same run (``old_fingerprint``), deleted by the first change
#: to a config field. Both re-recorded once when flow 0 took the single-flow
#: ports and RNG stream names (see ``test_population_churn.py``).
GOLDEN_200 = "bcf8cbe0f4038316aeaeb791a5d1cf9b48d4e8c45970e6098c1d57cc0e7c4e64"
GOLDEN_200_OLD = "ec37abd789b83b95543864c13358623e8af5918b385e836c45e3ff278e47063c"
GOLDEN_200_CHURN = "ce93e16593c71daba25b57bd1e775c30575d2bd0539694091a19eb7ffd6e1227"
GOLDEN_200_CHURN_OLD = "dceeb19bbc5ff886b08b5d746f6dc96b041502fa3253d180c8b2e0e5d9397e30"


def two_hundred_flows(**overrides):
    from repro.framework.scenarios import population_sweep

    grid = population_sweep(
        200, file_size=kib(64), max_sim_time_ns=seconds(300), **overrides
    )
    return grid["mixed"]


@pytest.mark.slow
def test_two_hundred_flow_poisson_population_is_deterministic():
    # The acceptance-scale run: 200 Poisson arrivals, four mixed profiles,
    # heterogeneous RTTs, one shared bottleneck. Same seed => the recorded
    # fingerprint, delivered-byte goodput, clean conservation counters.
    result = run_population(two_hundred_flows(), seed=1)
    assert result.fingerprint() == GOLDEN_200
    assert old_fingerprint(result) == GOLDEN_200_OLD
    assert len(result.multi.flows) == 200
    assert result.completed
    assert result.multi.unrouted == 0
    for flow in result.multi.flows:
        assert flow.bytes_received == flow.spec.file_size
    result.multi.validate()


@pytest.mark.slow
def test_two_hundred_flow_churn_population_is_deterministic():
    result = run_population(two_hundred_flows(churn=True), seed=1)
    assert result.fingerprint() == GOLDEN_200_CHURN
    assert old_fingerprint(result) == GOLDEN_200_CHURN_OLD
    assert result.completed_count == 200
    assert result.multi.unrouted == 0
