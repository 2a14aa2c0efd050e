"""qlog-style tracing."""

import json

from repro.framework.config import ExperimentConfig, NetworkConfig
from repro.framework.experiment import Experiment
from repro.net.impairments import burst_loss, iid_loss
from repro.quic.qlog import QlogTrace, attach_qlog
from repro.units import kib


def run_traced(**kwargs):
    kwargs.setdefault("file_size", kib(200))
    cfg = ExperimentConfig(stack="quiche", repetitions=1, qlog=True, **kwargs)
    experiment = Experiment(cfg, seed=17)
    result = experiment.run()
    return experiment, result


def test_trace_records_sends_and_receives():
    experiment, result = run_traced()
    trace = experiment.flows[0].qlog
    sent = trace.of_type("transport:packet_sent")
    assert len(sent) == experiment.flows[0].server.conn.packets_sent
    assert len(trace.of_type("transport:packet_received")) > 0
    # Events are time-ordered.
    times = [e.time_ns for e in trace.events]
    assert times == sorted(times)


def test_metrics_updated_on_acks():
    experiment, _ = run_traced()
    metrics = experiment.flows[0].qlog.of_type("recovery:metrics_updated")
    assert metrics
    for e in metrics[:10]:
        assert e.data["cwnd"] > 0
        assert e.data["pacing_rate_bps"] > 0


def test_loss_events_traced():
    experiment, result = run_traced(file_size=kib(2048))
    lost = experiment.flows[0].qlog.of_type("recovery:packet_lost")
    events = experiment.flows[0].qlog.of_type("recovery:congestion_event")
    assert result.dropped > 0
    assert len(lost) >= result.dropped * 0.5  # most drops get detected
    assert events


def test_packet_sent_payload_fields():
    experiment, _ = run_traced()
    e = experiment.flows[0].qlog.of_type("transport:packet_sent")[0]
    assert {"packet_number", "size", "ack_eliciting", "frames"} <= set(e.data)


def test_serialization_roundtrip(tmp_path):
    experiment, _ = run_traced()
    path = experiment.flows[0].qlog.save(tmp_path / "trace.qlog")
    loaded = json.loads(path.read_text())
    assert loaded["qlog_version"]
    assert loaded["trace"]["events"]
    assert loaded["trace"]["events"][0]["time"] >= 0


def test_short_transfer_covers_expected_categories():
    experiment, result = run_traced(file_size=kib(64))
    assert result.completed
    categories = {e.name for e in experiment.flows[0].qlog.events}
    assert {
        "transport:packet_sent",
        "transport:packet_received",
        "recovery:metrics_updated",
    } <= categories
    # Every event name is category:event shaped.
    assert all(e.name.count(":") == 1 for e in experiment.flows[0].qlog.events)


def test_to_dict_is_json_serializable():
    experiment, _ = run_traced(file_size=kib(64))
    d = experiment.flows[0].qlog.to_dict()
    reloaded = json.loads(json.dumps(d))
    assert reloaded == d
    assert len(reloaded["trace"]["events"]) == len(experiment.flows[0].qlog)


def test_injected_drops_appear_in_trace():
    net = NetworkConfig(forward_impairments=(iid_loss(0.03),))
    experiment, result = run_traced(network=net)
    drops = experiment.flows[0].qlog.of_type("network:injected_drop")
    assert result.injected_drops > 0
    assert len(drops) == result.injected_drops
    e = drops[0]
    assert e.data["kind"] == "loss"
    assert e.data["stage"] == "fwd/0/loss"
    assert e.data["size"] > 0
    # Injected-drop events interleave time-ordered with the transport events.
    times = [e.time_ns for e in experiment.flows[0].qlog.events]
    assert times == sorted(times)


def test_recovery_events_under_injected_burst_loss():
    net = NetworkConfig(forward_impairments=(burst_loss(p_enter=0.01),))
    experiment, result = run_traced(file_size=kib(512), network=net)
    trace = experiment.flows[0].qlog
    assert result.injected_drops > 0
    lost = trace.of_type("recovery:packet_lost")
    assert lost
    assert trace.of_type("recovery:congestion_event")
    # The loss the controller reacts to is the fault layer's, not queue
    # overflow: the trace distinguishes the two.
    assert trace.of_type("network:injected_drop")
    assert result.dropped == 0 or len(lost) >= result.dropped


def test_manual_attach():
    from repro.quic.connection import Connection

    conn = Connection("client")
    trace = QlogTrace("manual", vantage_point="client")
    attach_qlog(conn, trace)
    conn.start_handshake()
    built = conn.build_packet(0)
    conn.on_packet_sent(built, 0)
    assert len(trace.of_type("transport:packet_sent")) == 1
    assert conn.qlog is trace
