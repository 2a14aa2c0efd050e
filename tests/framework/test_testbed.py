"""One testbed and one run: a single-flow experiment is the multi-flow run
at N = 1, so a flow means the same thing in both."""

import inspect

import pytest

from repro.cc.bbr import Bbr
from repro.framework import experiment, multiflow, testbed
from repro.framework.config import ExperimentConfig, NetworkConfig
from repro.framework.experiment import Experiment, ExperimentResult
from repro.framework.multiflow import FlowSpec, MultiFlowExperiment
from repro.framework.scenarios import SF_PATCH
from repro.net.impairments import duplication
from repro.net.packet import Datagram
from repro.net.tap import Sniffer
from repro.net.wifi import WifiBottleneck
from repro.sim.engine import Simulator
from repro.sim.random import RngRegistry
from repro.units import kib, ms, tx_time_ns, us

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
    assert isinstance(exp.testbed.bottleneck, WifiBottleneck)
    assert exp.run().all_completed


@pytest.mark.parametrize("reverse", [(), (duplication(1.0),)], ids=["plain", "duplicated"])
def test_ack_reaches_the_server_one_way_delay_after_the_reverse_link(reverse):
    """The ACK path's delay is its link's propagation: an ACK reaches the
    server side serialization + 1 us + the one-way delay after the reverse
    link accepts it, and a reverse impairment acts at that instant."""
    sim = Simulator()
    net = NetworkConfig(reverse_impairments=reverse)
    bed = testbed.Testbed(sim, RngRegistry(1), net, Sniffer())
    arrivals = []

    class Server:
        def receive(self, dgram):
            arrivals.append((sim.now, dgram.dgram_id))

    bed.deliver_to(forward_sink=None, reverse_sink=Server())
    ack = Datagram((testbed.CLIENT_ADDR, 1, testbed.SERVER_ADDR, 2), 40)
    sim.schedule_at(ms(3), bed.reverse_link.receive, ack)
    sim.run()
    at = ms(3) + tx_time_ns(ack.serialized_size, net.link_rate_bps) + us(1) + net.one_way_delay_ns
    assert arrivals == [(at, ack.dgram_id)] * (1 + len(reverse))


# -- one flow is the same run in both ------------------------------------------

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
    # One run shape: a one-flow run is the experiment, digest for digest.
    assert ExperimentResult.view(config, multi).fingerprint() == single.fingerprint()
    assert multi.flows[0].wire_packets == single.packets_on_wire


# -- structure ---------------------------------------------------------------

_CONSTRUCTORS = ("GsoSegmenter(", "Nic(", "make_qdisc(", "ServerDriver(", "TcpSender(")


def test_topology_constructors_appear_once_in_testbed():
    callers = inspect.getsource(experiment) + inspect.getsource(multiflow)
    wiring = inspect.getsource(testbed)
    for constructor in _CONSTRUCTORS:
        assert constructor not in callers
        assert wiring.count(constructor) == 1
