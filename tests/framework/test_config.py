"""Experiment configuration validation and derived values."""

import pytest

from repro.errors import ConfigError
from repro.framework.config import ExperimentConfig, NetworkConfig
from repro.net.impairments import ImpairmentSpec, burst_loss, iid_loss, rate_flap
from repro.units import kib, mbit, mib, ms


class TestNetworkConfig:
    def test_paper_defaults(self):
        net = NetworkConfig()
        assert net.bottleneck_rate_bps == mbit(40)
        assert net.min_rtt_ns == ms(40)
        # BDP = 40 Mbit/s * 40 ms = 200 kB; buffer = 2 BDP.
        assert net.bdp_bytes == 200_000
        assert net.buffer_bytes == 400_000
        assert net.forward_impairments == () and net.reverse_impairments == ()

    def test_impairment_specs_validated(self):
        NetworkConfig(forward_impairments=(iid_loss(0.01),)).validate()
        with pytest.raises(ConfigError):
            NetworkConfig(forward_impairments=(ImpairmentSpec(kind="loss", rate=2.0),)).validate()
        with pytest.raises(ConfigError):
            NetworkConfig(reverse_impairments=(ImpairmentSpec(kind="gremlins"),)).validate()

    def test_rate_flap_only_on_forward_tbf(self):
        NetworkConfig(forward_impairments=(rate_flap(),)).validate()
        with pytest.raises(ConfigError):
            NetworkConfig(reverse_impairments=(rate_flap(),)).validate()
        with pytest.raises(ConfigError):
            NetworkConfig(bottleneck="wifi", forward_impairments=(rate_flap(),)).validate()


class TestExperimentConfig:
    def test_defaults_valid(self):
        ExperimentConfig().validate()

    @pytest.mark.parametrize("field,value", [
        ("stack", "msquic"),
        ("cca", "nonsense"),
        ("qdisc", "htb"),
        ("gso", "sometimes"),
        ("file_size", 0),
        ("repetitions", 0),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            ExperimentConfig(**{field: value}).validate()

    def test_tcp_with_gso_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(stack="tcp", gso="on").validate()

    @pytest.mark.parametrize("field,value", [
        ("file_size", -5),
        ("repetitions", 0),
        ("objects", 0),
        ("gso_segments", 0),
        ("etf_delta_ns", -1),
        ("max_sim_time_ns", 0),
        ("client_ack_threshold", 0),
        ("bucket_packets", 0),
    ])
    def test_errors_name_the_offending_field_and_value(self, field, value):
        with pytest.raises(ConfigError) as excinfo:
            ExperimentConfig(**{field: value}).validate()
        assert field in str(excinfo.value)
        assert str(value) in str(excinfo.value)

    @pytest.mark.parametrize("field,value", [
        ("link_rate_bps", 0),
        ("bottleneck_rate_bps", -1),
        ("wifi_phy_rate_bps", 0),
        ("one_way_delay_ns", -1),
        ("wifi_access_overhead_ns", -1),
        ("buffer_bdp_multiplier", 0),
        ("tbf_burst_bytes", 0),
        ("wifi_max_aggregate", 0),
    ])
    def test_network_errors_name_the_offending_field(self, field, value):
        with pytest.raises(ConfigError) as excinfo:
            ExperimentConfig(network=NetworkConfig(**{field: value})).validate()
        assert field in str(excinfo.value)
        assert str(value) in str(excinfo.value)

    def test_label_encodes_variant(self):
        cfg = ExperimentConfig(stack="quiche", qdisc="fq", gso="paced", spurious_rollback=False)
        assert cfg.label == "quiche/cubic/fq/gso-paced/sf"
        assert ExperimentConfig(stack="tcp").label == "tcp/cubic"

    def test_scaled_returns_new_config(self):
        cfg = ExperimentConfig(file_size=mib(8), repetitions=5)
        scaled = cfg.scaled(kib(100), repetitions=2)
        assert scaled.file_size == kib(100)
        assert scaled.repetitions == 2
        assert cfg.file_size == mib(8)  # original untouched

    def test_cache_key_is_stable_and_complete(self):
        import dataclasses

        cfg = ExperimentConfig()
        assert cfg.cache_key() == ExperimentConfig().cache_key()
        # Every field — including ones the old hand-built benchmark key
        # missed (qdisc, gso, ack overrides, the nested network config) —
        # must perturb the key.
        for field, value in [
            ("qdisc", "fq"),
            ("gso", "on"),
            ("client_ack_threshold", 4),
            ("bucket_packets", 16),
            ("ecn", True),
            ("network", NetworkConfig(bottleneck_rate_bps=mbit(10))),
        ]:
            changed = dataclasses.replace(cfg, **{field: value})
            assert changed.cache_key() != cfg.cache_key(), field

    def test_cache_key_sees_impairments(self):
        cfg = ExperimentConfig()
        keys = {
            cfg.cache_key(),
            ExperimentConfig(
                network=NetworkConfig(forward_impairments=(iid_loss(0.01),))
            ).cache_key(),
            ExperimentConfig(
                network=NetworkConfig(forward_impairments=(iid_loss(0.02),))
            ).cache_key(),
            ExperimentConfig(
                network=NetworkConfig(reverse_impairments=(iid_loss(0.01),))
            ).cache_key(),
        }
        assert len(keys) == 4

    def test_label_encodes_impairments(self):
        cfg = ExperimentConfig(
            stack="quiche",
            qdisc="fq",
            network=NetworkConfig(
                forward_impairments=(burst_loss(),),
                reverse_impairments=(iid_loss(0.01),),
            ),
        )
        assert cfg.label == "quiche/cubic/fq/ge0.003-0.3/r-loss0.01"

    def test_experiment_validate_runs_network_validate(self):
        bad = ExperimentConfig(network=NetworkConfig(reverse_impairments=(rate_flap(),)))
        with pytest.raises(ConfigError):
            bad.validate()


def test_scenarios_cover_paper_experiments():
    from repro.framework import claims, scenarios

    base = scenarios.all_baselines()
    assert set(base) == {"quiche", "picoquic", "ngtcp2", "tcp"}
    for cfg in base.values():
        cfg.validate()
        assert cfg.cca == "cubic"

    fq = scenarios.quiche_fq(spurious_rollback=True)
    assert fq.qdisc == "fq" and fq.spurious_rollback

    gso = scenarios.quiche_gso("paced")
    assert gso.gso == "paced" and gso.spurious_rollback is False

    paper = claims.paper_grid()
    assert [paper[name].cca for name in ("picoquic", "picoquic-newreno", "picoquic-bbr")] == [
        "cubic", "newreno", "bbr"
    ]

    for qdisc in ("none", "fq", "etf", "etf-offload"):
        scenarios.precision_config(qdisc).validate()
