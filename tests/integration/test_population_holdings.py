"""A ratchet on what a population keeps that no result reads.

Clock-free, like ``test_call_budget.py``: it counts what a run holds, not how
long it takes. A run with ``capture_records=False`` reports per flow only
outcome counters and the frames it put on the wire, so it must hold no
per-packet output (no capture column, no expected-send log), and no flow may
seed a random stream for a component that never draws from it: the NIC
draws only under LaunchTime, the qdisc only under FQ and ETF, and the
extra-RTT delay line never. With ``capture_records=True`` the per-packet
outputs are all there, and the behaviour digest is the same.
"""

from repro.framework.multiflow import MultiFlowExperiment
from repro.framework.population import FlowPopulation, PopulationConfig
from repro.net.tap import CaptureColumns
from repro.units import kib, ms, seconds

#: pfifo_fast, FQ, ETF and LaunchTime quiche flows and TCP flows, four of
#: each, with extra RTTs.
_CONFIG = PopulationConfig(
    flows=20,
    arrival_rate_per_s=200.0,
    file_size=kib(32),
    extra_rtt_max_ns=ms(20),
    profiles=(
        "quiche:cubic",
        "quiche:cubic:fq",
        "quiche:cubic:etf",
        "quiche:cubic:etf-offload",
        "tcp",
    ),
    max_sim_time_ns=seconds(60),
    seed=3,
)


def _run(capture_records: bool):
    experiment = MultiFlowExperiment(
        FlowPopulation(_CONFIG).specs(_CONFIG.seed),
        network=_CONFIG.network,
        seed=_CONFIG.seed,
        max_sim_time_ns=_CONFIG.max_sim_time_ns,
        capture_records=capture_records,
    )
    return experiment, experiment.run()


def _column_lengths(cols: CaptureColumns):
    """The length of every per-packet column (the flow table is per flow)."""
    return {len(getattr(cols, name)) for name in CaptureColumns.__slots__ if name != "flows"}


def test_a_population_holds_only_what_it_reads():
    experiment, result = _run(capture_records=False)
    assert result.all_completed
    streams = set(experiment.rngs._streams)
    flows = experiment.flows
    assert any(flow.spec.extra_rtt_ns for flow in flows)
    for flow in flows:
        nic, qdisc, server, client = flow.streams
        assert (nic in streams) == (flow.spec.qdisc == "etf-offload")
        assert (qdisc in streams) == (flow.spec.qdisc != "none")
        assert (server in streams) == (client in streams) == (flow.server is not None)
    assert not [name for name in streams if name.endswith("rtt")]

    servers = [flow.server for flow in flows if flow.server is not None]
    assert len(servers) == 16 and all(s.conn.packets_sent for s in servers)
    assert not any(len(s.expected_send_log) for s in servers)

    assert all(f.wire_packets for f in result.flows)
    assert _column_lengths(experiment.sniffer.columns) == {0}
    assert not any(len(f.records) or f.expected_send_log for f in result.flows)


def test_capture_records_keeps_every_per_packet_output_at_the_same_digest():
    _, plain = _run(capture_records=False)
    experiment, captured = _run(capture_records=True)
    assert captured.fingerprint() == plain.fingerprint()

    wire = sum(f.wire_packets for f in captured.flows)
    assert _column_lengths(experiment.sniffer.columns) == {wire}
    for flow, out in zip(experiment.flows, captured.flows):
        assert len(out.records) == out.wire_packets
        if flow.server is not None:
            sent = flow.server.conn.packets_sent
            assert len(flow.server.expected_send_log) == len(out.expected_send_log) == sent
