"""Cross-cutting invariants checked over randomized configurations.

Property-style end-to-end checks: whatever the stack/qdisc/seed, conservation
and accounting invariants must hold.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.framework.config import ExperimentConfig
from repro.framework.experiment import Experiment
from repro.framework.scenarios import SF_PATCH
from repro.units import kib

configs = st.fixed_dictionaries(
    {
        "stack": st.sampled_from(["quiche", "picoquic", "ngtcp2", "tcp"]),
        "cca": st.sampled_from(["cubic", "newreno", "bbr"]),
        "seed": st.integers(min_value=1, max_value=10_000),
    }
)


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(configs)
def test_every_configuration_completes_with_consistent_accounting(params):
    seed = params.pop("seed")
    cfg = ExperimentConfig(file_size=kib(200), repetitions=1, **params)
    experiment = Experiment(cfg, seed=seed)
    result = experiment.run()

    assert result.completed
    assert 0 < result.goodput_mbps <= cfg.network.bottleneck_rate_bps / 1e6
    # Conservation at the bottleneck — the tap sits directly before it, so
    # captured server packets equal forwarded + dropped.
    bneck = experiment.testbed.bottleneck
    server_records = result.server_records
    assert len(server_records) == bneck.forwarded + bneck.dropped
    # Capture timestamps strictly increase (serialized link).
    times = [r.time_ns for r in server_records]
    assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
    # Drops reported by the experiment match the bottleneck.
    assert result.dropped == bneck.dropped


@settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(["none", "fq", "etf", "etf-offload"]),
    st.integers(min_value=1, max_value=1000),
)
def test_qdisc_conservation(qdisc, seed):
    cfg = ExperimentConfig(
        stack="quiche", qdisc=qdisc, params=SF_PATCH,
        file_size=kib(150), repetitions=1,
    )
    experiment = Experiment(cfg, seed=seed)
    result = experiment.run()
    assert result.completed
    stats = experiment.flows[0].qdisc.stats
    backlog = getattr(experiment.flows[0].qdisc, "backlog_packets", 0)
    assert stats.enqueued == stats.dequeued + stats.dropped + backlog
