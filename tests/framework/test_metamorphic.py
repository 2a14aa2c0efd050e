"""Metamorphic relations on the behaviour digest: what a run keeps or traces
never moves it.

Every run shape's frames enter its digest where the tap folds them, so a run
digests bit-identically whether it keeps its capture (``capture_records``)
or not, and whether its flows are traced (qlog, cwnd, queue) or not. Each
pair below runs one behaviour both ways and checks that the switch did
something observable besides.
"""

from dataclasses import replace

import pytest

from repro.framework.config import ExperimentConfig, NetworkConfig
from repro.framework.experiment import run_experiment
from repro.framework.multiflow import FlowSpec, MultiFlowExperiment
from repro.framework.population import PopulationConfig, run_population
from repro.net.impairments import iid_loss, reordering
from repro.units import kib, ms, seconds

LOSSY = NetworkConfig(
    forward_impairments=(iid_loss(0.01), reordering()),
    reverse_impairments=(iid_loss(0.01),),
)


@pytest.mark.parametrize("stack", ["quiche", "tcp"])
def test_a_single_flow_digests_the_same_with_or_without_its_capture(stack):
    kept = run_experiment(ExperimentConfig(stack=stack, file_size=kib(256), network=LOSSY), seed=4)
    spec = FlowSpec(stack=stack, file_size=kib(256))
    bare = MultiFlowExperiment([spec], LOSSY, seed=4, capture_records=False).run()
    assert len(kept.server_records) == kept.wire_packets > 0
    assert not bare.flows[0].records and bare.flows[0].wire_packets == kept.wire_packets
    assert kept.fingerprint() == bare.fingerprint()


def test_a_mixed_run_digests_the_same_with_or_without_its_capture():
    specs = [
        FlowSpec(stack="quiche", qdisc="fq", file_size=kib(128)),
        FlowSpec(stack="tcp", file_size=kib(128), start_ns=ms(5)),
        FlowSpec(stack="picoquic", cca="bbr", file_size=kib(128), extra_rtt_ns=ms(10)),
    ]
    kept, bare = (
        MultiFlowExperiment(specs, LOSSY, seed=6, capture_records=capture).run()
        for capture in (True, False)
    )
    assert all(len(f.records) == f.wire_packets > 0 for f in kept.flows)
    assert not any(f.records for f in bare.flows)
    assert kept.fingerprint() == bare.fingerprint()


@pytest.mark.parametrize("churn", [False, True], ids=["plain", "churn"])
def test_a_population_digests_the_same_with_or_without_its_capture(churn):
    config = PopulationConfig(
        flows=12,
        arrival_rate_per_s=150.0,
        file_size=kib(32),
        extra_rtt_max_ns=ms(20),
        profiles=("quiche:cubic:fq", "picoquic:bbr", "tcp"),
        max_sim_time_ns=seconds(60),
        churn=churn,
        seed=2,
    )
    kept, bare = (
        run_population(replace(config, capture_records=capture)) for capture in (True, False)
    )
    assert all(f.records for f in kept.multi.flows)
    assert not any(f.records for f in bare.multi.flows)
    assert kept.fingerprint() == bare.fingerprint()


@pytest.mark.parametrize("flag", ["qlog", "trace_cwnd", "trace_queue"])
def test_a_single_flow_digests_the_same_traced_or_not(flag):
    plain = ExperimentConfig(stack="quiche", file_size=kib(256), network=LOSSY)
    traced = replace(plain, **{flag: True})
    first, second = (run_experiment(config, seed=8) for config in (plain, traced))
    if flag == "trace_cwnd":
        assert second.cwnd_trace and not first.cwnd_trace
    if flag == "trace_queue":
        assert second.queue_trace and not first.queue_trace
    assert first.fingerprint() == second.fingerprint()
