"""The fingerprint's byte encoding is the contract, not just its hash.

``ExperimentResult.fingerprint()`` used to build a dict tree
(``dataclasses.asdict`` of the config and of every capture record) and feed it
to ``json.dumps(..., sort_keys=True)``. The encoder now writes the same bytes
without the tree. The old expression lives on here, and only here, as the
reference: every test asserts *byte* equality of the encoded payload, so a
mismatch points at the differing field instead of at two unequal hashes.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, replace

import pytest

from repro.framework.config import ExperimentConfig, NetworkConfig
from repro.framework.experiment import (
    _CAPTURE_CHUNK_ROWS,
    ExperimentResult,
    run_experiment,
)
from repro.framework.multiflow import (
    FlowResult,
    FlowSpec,
    MultiFlowExperiment,
    MultiFlowResult,
)
from repro.net.impairments import burst_loss, duplication, iid_loss, reordering
from repro.net.tap import CaptureColumns, CaptureRecord
from repro.units import kib


def reference_encoding(result: ExperimentResult) -> bytes:
    """The pre-streaming ``fingerprint()`` payload, verbatim."""
    payload = {
        "config": asdict(result.config),
        "seed": result.seed,
        "completed": result.completed,
        "duration_ns": result.duration_ns,
        "goodput_mbps": result.goodput_mbps,
        "dropped": result.dropped,
        "injected_drops": result.injected_drops,
        "server_records": [asdict(r) for r in result.server_records],
        "expected_send_log": result.expected_send_log,
        "cwnd_trace": result.cwnd_trace,
        "queue_trace": result.queue_trace,
        "qdisc_stats": result.qdisc_stats,
        "server_stats": result.server_stats,
        "object_completion_ns": result.object_completion_ns,
        "impairment_stats": result.impairment_stats,
    }
    return json.dumps(payload, sort_keys=True).encode()


def reference_multiflow_encoding(result: MultiFlowResult) -> bytes:
    """The pre-change ``MultiFlowResult.fingerprint()`` payload, verbatim."""
    payload = {
        "seed": result.seed,
        "sim_time_ns": result.sim_time_ns,
        "total_dropped": result.total_dropped,
        "injected_drops": result.injected_drops,
        "ack_drops": result.ack_drops,
        "unrouted": result.unrouted,
        "impairment_stats": result.impairment_stats,
        "flows": [
            {
                "spec": asdict(f.spec),
                "completed": f.completed,
                "duration_ns": f.duration_ns,
                "goodput_mbps": f.goodput_mbps,
                "bytes_received": f.bytes_received,
                "dropped": f.dropped,
                "injected_drops": f.injected_drops,
                "ack_drops": f.ack_drops,
                "wire_packets": f.wire_packets,
                "start_ns": f.start_ns,
            }
            for f in result.flows
        ],
    }
    if result.drained:
        payload["drained"] = result.drained
    return json.dumps(payload, sort_keys=True).encode()


def assert_same_bytes(result, reference) -> None:
    if isinstance(result, MultiFlowResult):
        encoded = result.canonical_bytes()
    else:
        encoded = b"".join(result.canonical_encoding())
    expected = reference(result)
    if encoded != expected:  # name the first differing byte, not two hashes
        at = next(i for i, (a, b) in enumerate(zip(encoded, expected)) if a != b)
        pytest.fail(
            f"encodings differ at byte {at}: "
            f"{encoded[max(at - 60, 0):at + 60]!r} vs {expected[max(at - 60, 0):at + 60]!r}"
        )
    assert result.fingerprint() == hashlib.sha256(expected).hexdigest()


LOSSY = NetworkConfig(
    forward_impairments=(burst_loss(), reordering(), duplication(0.01)),
    reverse_impairments=(iid_loss(0.01),),
)

REAL_CONFIGS = {
    # GSO on: gso_id is set on every segment of a buffer.
    "quiche-gso": ExperimentConfig(stack="quiche", qdisc="fq", gso="on", file_size=kib(256)),
    # No GSO: gso_id is None on every record. (A real capture never has a
    # None packet_number, TCP segments are numbered too; the synthetic
    # captures below cover that.)
    "tcp": ExperimentConfig(stack="tcp", file_size=kib(256)),
    # Impairments on both paths: impairment_stats is non-empty.
    "quiche-lossy": ExperimentConfig(stack="quiche", file_size=kib(256), network=LOSSY),
    # Every optional trace on, several objects: int-keyed object_completion_ns.
    "picoquic-traced": ExperimentConfig(
        stack="picoquic",
        cca="bbr",
        file_size=kib(256),
        objects=3,
        trace_cwnd=True,
        trace_queue=True,
        qlog=True,
    ),
}


@pytest.mark.parametrize("name", sorted(REAL_CONFIGS))
def test_real_results_encode_byte_identically(name):
    result = run_experiment(REAL_CONFIGS[name], seed=5)
    assert result.server_records
    if name == "quiche-gso":
        assert any(r.gso_id is not None for r in result.server_records)
    if name == "tcp":
        assert all(r.gso_id is None for r in result.server_records)
    if name == "quiche-lossy":
        assert result.impairment_stats
    if name == "picoquic-traced":
        assert result.cwnd_trace and result.queue_trace and len(result.object_completion_ns) == 3
    assert_same_bytes(result, reference_encoding)


def _synthetic(records, **overrides) -> ExperimentResult:
    fields = dict(
        config=ExperimentConfig(file_size=kib(64)),
        seed=3,
        completed=True,
        duration_ns=123_456_789,
        goodput_mbps=12.5,
        dropped=2,
        server_records=records,
        expected_send_log=[(i, 1000 * i) for i in range(len(records))],
        qdisc_stats={"enqueued": len(records), "dropped": 0},
        server_stats={"packets_sent": len(records)},
        object_completion_ns={4: 99, 0: 7},
    )
    fields.update(overrides)
    return ExperimentResult(**fields)


def _records(rng: random.Random, count: int, flows) -> CaptureColumns:
    return CaptureColumns.from_records(
        CaptureRecord(
            time_ns=1_000 * i + rng.randrange(1_000),
            wire_size=rng.randrange(60, 1_500),
            payload_size=rng.randrange(18, 1_458),
            flow=rng.choice(flows),
            packet_number=rng.choice((None, 0, i, 2**40 + i)),
            dgram_id=i,
            gso_id=rng.choice((None, 0, i // 10)),
        )
        for i in range(count)
    )


FLOW_A = ("10.0.0.1", 443, "10.0.0.2", 40000)
FLOW_B = ("10.0.0.1", 4434, "10.0.0.2", 50001)
#: Non-ASCII, quote and backslash: json.dumps escapes all three.
FLOW_ODD = ('hôte-"中"', 1, "back\\slash\n", 65535)


@pytest.mark.parametrize(
    "count, flows",
    [
        (0, [FLOW_A]),
        (1, [FLOW_A]),
        (50, [FLOW_A, FLOW_B]),
        (50, [FLOW_A, FLOW_ODD]),
        # Rows are joined per chunk: cover the seams between chunks.
        (_CAPTURE_CHUNK_ROWS, [FLOW_A]),
        (2 * _CAPTURE_CHUNK_ROWS + 1, [FLOW_A, FLOW_B]),
    ],
)
def test_synthetic_captures_encode_byte_identically(count, flows):
    rng = random.Random(count * 31 + len(flows))
    assert_same_bytes(_synthetic(_records(rng, count, flows)), reference_encoding)


@pytest.mark.parametrize(
    "goodput", [1e-07, 1e16, 0.1 + 0.2, 0.0, 5e-324, 1.7976931348623157e308, 40.0]
)
def test_float_repr_is_preserved(goodput):
    rng = random.Random(1)
    result = _synthetic(_records(rng, 3, [FLOW_A]), goodput_mbps=goodput)
    assert_same_bytes(result, reference_encoding)


def test_every_non_capture_field_reaches_the_encoding():
    """Each fingerprinted field, changed alone, changes the bytes — and the
    changed result still matches the reference (no field is dropped, cached
    or reordered)."""
    rng = random.Random(2)
    base = _synthetic(
        _records(rng, 5, [FLOW_A]),
        cwnd_trace=[(0, 12_000), (5, 24_000)],
        queue_trace=[(1, 3), (2, 0)],
        impairment_stats={"fwd/0/iid_loss": {"seen": 5, "injected_drops": 1}},
        injected_drops=1,
    )
    base_bytes = b"".join(base.canonical_encoding())
    changes = dict(
        config=replace(base.config, cca="bbr"),
        seed=4,
        completed=False,
        duration_ns=1,
        goodput_mbps=1.0,
        dropped=3,
        injected_drops=2,
        server_records=base.server_records[:-1],
        expected_send_log=[],
        cwnd_trace=[],
        queue_trace=[],
        qdisc_stats={},
        server_stats={},
        object_completion_ns={},
        impairment_stats={},
    )
    for field_name, value in changes.items():
        changed = replace(base, **{field_name: value})
        assert b"".join(changed.canonical_encoding()) != base_bytes, field_name
        assert_same_bytes(changed, reference_encoding)
    # Execution observability stays out of it.
    assert replace(base, wall_time_s=9.0, events_processed=7).fingerprint() == base.fingerprint()


def _flow_result(spec: FlowSpec, **overrides) -> FlowResult:
    fields = dict(
        spec=spec,
        completed=True,
        duration_ns=5_000_000,
        goodput_mbps=0.1 + 0.2,
        dropped=1,
        bytes_received=spec.file_size,
        wire_packets=40,
        start_ns=spec.start_ns,
    )
    fields.update(overrides)
    return FlowResult(**fields)


@pytest.mark.parametrize("drained", [0, 3])
def test_multiflow_encodes_byte_identically(drained):
    flows = [
        _flow_result(FlowSpec()),
        _flow_result(
            FlowSpec(stack="tcp", qdisc="fq", spurious_rollback=False, start_ns=7, extra_rtt_ns=9),
            completed=False,
            goodput_mbps=1e-07,
            ack_drops=2,
        ),
    ]
    result = MultiFlowResult(
        flows=flows,
        total_dropped=2,
        sim_time_ns=10**9,
        seed=11,
        ack_drops=2,
        drained=drained,
        impairment_stats={"rev/0/iid_loss": {"seen": 9, "injected_drops": 2}},
    )
    encoded = result.canonical_bytes()
    # Churn accounting is omitted when zero (pre-churn goldens stay valid).
    assert (b'"drained"' in encoded) == bool(drained)
    assert_same_bytes(result, reference_multiflow_encoding)


def test_real_multiflow_result_encodes_byte_identically():
    result = MultiFlowExperiment(
        [FlowSpec(file_size=kib(64)), FlowSpec(stack="tcp", file_size=kib(64))], seed=2
    ).run()
    assert_same_bytes(result, reference_multiflow_encoding)
