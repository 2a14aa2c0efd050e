"""Competing-flow experiments over a shared bottleneck."""

import pytest

from repro.framework.multiflow import FlowSpec, MultiFlowExperiment
from repro.framework.scenarios import SF_PATCH
from repro.framework.testbed import SERVER_ADDR
from repro.net.tap import CaptureColumns
from repro.units import kib, mib, ms

SMALL = kib(400)


def run(flows, **kwargs):
    kwargs.setdefault("seed", 6)
    return MultiFlowExperiment(flows, **kwargs).run()


def test_requires_at_least_one_flow():
    with pytest.raises(ValueError):
        MultiFlowExperiment([])


def test_single_flow_behaves_like_single_experiment():
    result = run([FlowSpec(file_size=SMALL)])
    assert result.all_completed
    flow = result.flows[0]
    assert 1 < flow.goodput_mbps < 40
    assert len(flow.records) > SMALL // 1252


def test_two_identical_flows_share_fairly():
    result = run([FlowSpec(file_size=mib(2)), FlowSpec(file_size=mib(2))])
    assert result.all_completed
    assert result.fairness > 0.85
    assert result.aggregate_goodput_mbps < 42


def test_flows_are_isolated_in_capture_and_drops():
    result = run([FlowSpec(file_size=SMALL), FlowSpec(file_size=SMALL)])
    ports = {r.flow[1] for f in result.flows for r in f.records}
    assert len(ports) == 2
    for flow in result.flows:
        flow_ports = {r.flow[1] for r in flow.records}
        assert len(flow_ports) == 1
    assert sum(f.dropped for f in result.flows) == result.total_dropped


def test_per_flow_records_partition_the_server_capture_in_order():
    # A `compete`-shaped run: three profiles, one tap, records on.
    experiment = MultiFlowExperiment(
        [
            FlowSpec(qdisc="fq", file_size=SMALL),
            FlowSpec(stack="tcp", file_size=SMALL),
            FlowSpec(qdisc="fq", gso="paced", file_size=SMALL),
        ],
        seed=6,
    )
    result = experiment.run()
    capture = experiment.sniffer.columns.from_host(SERVER_ADDR)
    for wired, flow in zip(experiment.flows, result.flows):
        port = wired.server_port
        assert flow.records == CaptureColumns.from_records(r for r in capture if r.flow[1] == port)
        # A flow's capture carries its own flow, not the population's table.
        assert flow.records.flows == [f for f in capture.flows if f[1] == port]
        assert len(flow.records) == flow.wire_packets > 0
    assert sum(len(f.records) for f in result.flows) == len(capture)


def test_staggered_start():
    result = run(
        [
            FlowSpec(file_size=SMALL),
            FlowSpec(file_size=SMALL, start_ns=ms(300)),
        ]
    )
    assert result.all_completed
    first = min(r.time_ns for r in result.flows[0].records)
    second = min(r.time_ns for r in result.flows[1].records)
    assert second >= first + ms(250)


def test_mixed_stack_contest_completes():
    result = run(
        [
            FlowSpec(stack="quiche", qdisc="fq", params=SF_PATCH, file_size=SMALL),
            FlowSpec(stack="picoquic", cca="bbr", file_size=SMALL),
            FlowSpec(stack="tcp", file_size=SMALL),
        ]
    )
    assert result.all_completed
    labels = [f.spec.label for f in result.flows]
    assert labels == ["quiche/cubic/fq/spurious_rollback=false", "picoquic/bbr", "tcp/cubic"]


def test_deterministic_for_seed():
    flows = [FlowSpec(file_size=SMALL), FlowSpec(stack="tcp", file_size=SMALL)]
    r1 = run(flows, seed=9)
    r2 = run(flows, seed=9)
    assert [f.goodput_mbps for f in r1.flows] == [f.goodput_mbps for f in r2.flows]
    assert r1.total_dropped == r2.total_dropped


def test_contention_reduces_per_flow_goodput():
    solo = run([FlowSpec(file_size=mib(2))])
    duo = run([FlowSpec(file_size=mib(2)), FlowSpec(file_size=mib(2))])
    assert duo.flows[0].goodput_mbps < solo.flows[0].goodput_mbps


def test_incomplete_flow_reports_delivered_goodput():
    # Regression: goodput used to be computed from spec.file_size even when
    # the flow never finished, so a stalled flow looked fast. Cut the run
    # short and check the number comes from bytes actually delivered.
    from repro.metrics.goodput import goodput_mbps
    from repro.units import seconds

    result = run([FlowSpec(file_size=mib(16))], max_sim_time_ns=seconds(1))
    flow = result.flows[0]
    assert not flow.completed
    assert 0 < flow.bytes_received < flow.spec.file_size
    assert flow.goodput_mbps == pytest.approx(
        goodput_mbps(flow.bytes_received, flow.duration_ns)
    )
    # The buggy full-file number would claim >100 Mbit/s through a 40 Mbit/s
    # bottleneck; the delivered-bytes number must respect the ceiling.
    assert flow.goodput_mbps < 45


def test_completed_flows_deliver_exactly_file_size():
    result = run([FlowSpec(file_size=SMALL), FlowSpec(stack="tcp", file_size=SMALL)])
    assert result.all_completed
    for flow in result.flows:
        assert flow.bytes_received == flow.spec.file_size


def test_forward_impairments_are_wired_and_attributed():
    # Regression: MultiFlowExperiment used to ignore NetworkConfig
    # impairments entirely, so impaired configs silently ran clean.
    from repro.framework.config import NetworkConfig
    from repro.net.impairments import iid_loss

    net = NetworkConfig(forward_impairments=(iid_loss(0.02),))
    result = run([FlowSpec(file_size=SMALL), FlowSpec(file_size=SMALL)], network=net)
    assert result.all_completed
    assert result.injected_drops > 0
    assert sum(f.injected_drops for f in result.flows) == result.injected_drops
    assert "fwd/0/loss" in result.impairment_stats


def test_reverse_impairments_drop_acks_per_flow():
    from repro.framework.config import NetworkConfig
    from repro.net.impairments import iid_loss

    net = NetworkConfig(reverse_impairments=(iid_loss(0.05),))
    result = run([FlowSpec(file_size=SMALL), FlowSpec(file_size=SMALL)], network=net)
    assert result.all_completed
    assert result.ack_drops > 0
    assert sum(f.ack_drops for f in result.flows) == result.ack_drops
    assert "rev/0/loss" in result.impairment_stats


def test_unrouted_is_reported_and_zero():
    result = run([FlowSpec(file_size=SMALL)])
    assert result.unrouted == 0
    result.validate()  # conservation gate passes on a clean run


def test_validate_rejects_tampered_accounting():
    from repro.errors import ValidationError

    result = run([FlowSpec(file_size=SMALL)])
    result.flows[0].dropped += 1  # break per-flow vs. bottleneck attribution
    with pytest.raises(ValidationError):
        result.validate()


def test_fingerprint_deterministic_and_capture_independent():
    flows = [FlowSpec(file_size=SMALL), FlowSpec(stack="tcp", file_size=SMALL)]
    r1 = run(flows, seed=11)
    r2 = run(flows, seed=11)
    r3 = run(flows, seed=11, capture_records=False)
    assert r1.fingerprint() == r2.fingerprint()
    # Capture is an observability toggle, not a result.
    assert r1.fingerprint() == r3.fingerprint()
    assert all(not f.records for f in r3.flows)
    assert r3.flows[0].wire_packets == len(r1.flows[0].records)
    assert run(flows, seed=12).fingerprint() != r1.fingerprint()


def test_staggered_arrival_timing_in_result():
    late = ms(500)
    result = run([FlowSpec(file_size=SMALL), FlowSpec(file_size=SMALL, start_ns=late)])
    assert result.all_completed
    assert result.flows[1].start_ns == late
    # The late flow's transfer happens entirely after its arrival.
    second_first_frame = min(r.time_ns for r in result.flows[1].records)
    assert second_first_frame >= late


def test_extra_rtt_slows_a_flow_down():
    from repro.units import ms as _ms

    base = run([FlowSpec(file_size=mib(1))])
    slowed = run([FlowSpec(file_size=mib(1), extra_rtt_ns=_ms(80))])
    assert base.all_completed and slowed.all_completed
    assert slowed.flows[0].duration_ns > base.flows[0].duration_ns
    assert slowed.fingerprint() != base.fingerprint()


def test_port_budget_is_guarded():
    from repro.framework.multiflow import MAX_FLOWS

    with pytest.raises(ValueError):
        MultiFlowExperiment([FlowSpec()] * (MAX_FLOWS + 1))
