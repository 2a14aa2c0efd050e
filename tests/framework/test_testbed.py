"""One testbed: the single-flow and multi-flow experiments are wired by the
same assembler, so a flow means the same thing in both."""

import inspect

import pytest

from repro.cc.bbr import Bbr
from repro.framework import experiment, multiflow, testbed
from repro.framework.config import ExperimentConfig, NetworkConfig
from repro.framework.experiment import Experiment
from repro.framework.multiflow import FlowSpec, MultiFlowExperiment
from repro.framework.scenarios import SF_PATCH
from repro.net.wifi import WifiBottleneck
from repro.units import kib

SIZE = kib(256)


@pytest.fixture
def wired(monkeypatch):
    """The flows a multi-flow experiment asks the testbed to wire."""
    flows = []

    class Recorded(testbed.WiredFlow):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            flows.append(self)

    monkeypatch.setattr(multiflow, "WiredFlow", Recorded)
    return flows


# -- what the drifted multi-flow copy got wrong ------------------------------


@pytest.mark.parametrize("flows", [1, 2])
@pytest.mark.parametrize("qdisc", ["etf", "etf-offload"])
def test_multiflow_etf_flows_complete_without_late_drops(wired, qdisc, flows):
    spec = FlowSpec(qdisc=qdisc, params=SF_PATCH, file_size=SIZE)
    result = MultiFlowExperiment([spec] * flows, seed=3).run()
    assert result.all_completed
    assert len(wired) == flows
    for flow in wired:
        assert flow.qdisc.stats.dropped_late == 0
        assert flow.nic.launchtime == (qdisc == "etf-offload")
        assert flow.profile.txtime_min_offset_ns > flow.qdisc.delta_ns


def test_multiflow_tcp_honours_cca(wired):
    MultiFlowExperiment([FlowSpec(stack="tcp", cca="bbr", file_size=SIZE)])
    assert isinstance(wired[0].tcp_sender.cc, Bbr)
    assert wired[0].server_cc is wired[0].tcp_sender.cc


def test_multiflow_wifi_network_builds_wifi_bottleneck():
    exp = MultiFlowExperiment(
        [FlowSpec(file_size=SIZE)], network=NetworkConfig(bottleneck="wifi"), seed=3
    )
    assert isinstance(exp.bottleneck, WifiBottleneck)
    assert exp.run().all_completed


# -- one flow is the same flow in both experiments ---------------------------

_PARITY = [
    (stack, qdisc, gso)
    for stack in ("quiche", "picoquic", "ngtcp2", "tcp")
    for qdisc in ("none", "fq", "etf")
    for gso in ("off", "on", "paced")
    # Only quiche stamps SO_TXTIME (ETF drops unstamped packets) and uses GSO.
    if stack == "quiche" or (qdisc != "etf" and gso == "off")
]


@pytest.mark.parametrize("stack,qdisc,gso", _PARITY)
def test_single_flow_parity(stack, qdisc, gso):
    spec = FlowSpec(stack=stack, qdisc=qdisc, gso=gso, file_size=SIZE)
    config = ExperimentConfig(stack=stack, qdisc=qdisc, gso=gso, file_size=SIZE)
    multi = MultiFlowExperiment([spec], seed=3).run()
    single = Experiment(config, seed=3).run()
    assert multi.all_completed and single.completed
    # RNG stream names differ between the two, so close rather than equal.
    assert multi.flows[0].wire_packets == pytest.approx(single.packets_on_wire, rel=0.02)


# -- structure ---------------------------------------------------------------

_CONSTRUCTORS = ("GsoSegmenter(", "Nic(", "make_qdisc(", "ServerDriver(", "TcpSender(")


def test_topology_constructors_appear_once_in_testbed():
    callers = inspect.getsource(experiment) + inspect.getsource(multiflow)
    wiring = inspect.getsource(testbed)
    for constructor in _CONSTRUCTORS:
        assert constructor not in callers
        assert wiring.count(constructor) == 1
