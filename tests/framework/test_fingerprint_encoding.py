"""The fingerprint's byte encoding is the contract, not just its hash.

Every run shape digests through one encoding,
``MultiFlowResult.canonical_bytes``: the seed and the outputs, each flow's
frames entering as the wire digest the tap folded them into. A single
experiment's fingerprint is its one-flow run's. The references here are
written independently of ``src``: :func:`digest_encoding` is that payload as
one ``json.dumps`` and :func:`wire_fold` the tap's fold over a capture's
rows. Tests assert *byte* equality, so a mismatch points at the differing
field instead of at two unequal hashes.

The digests the goldens were recorded with before live on here as oracles
too, each reproduced from the same run beside the new value:
:func:`behaviour_fingerprint` is the digest before the fold (a single flow's
whole capture, send log and traces as ``asdict`` rows; a multi-flow run's
counters), and :func:`old_fingerprint` the config-inclusive digest before
that. It encodes each config as it was then (:func:`_as_recorded`), so the
old column outlives the changes of config shape since.
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
import tracemalloc
from dataclasses import asdict, replace

import pytest

from repro.errors import ConfigError
from repro.framework.config import ExperimentConfig, NetworkConfig
from repro.framework.experiment import ExperimentResult, run_experiment
from repro.framework.multiflow import (
    FlowResult,
    FlowSpec,
    MultiFlowExperiment,
    MultiFlowResult,
)
from repro.framework.population import PopulationResult
from repro.framework.scenarios import SF_PATCH
from repro.net.impairments import burst_loss, duplication, iid_loss, reordering
from repro.net.packet import Datagram
from repro.net.tap import CaptureColumns, CaptureRecord, Sniffer
from repro.stacks.base import SendLog
from repro.units import kib, ms, us


def _payload(result: ExperimentResult) -> dict:
    return {
        "seed": result.seed,
        "completed": result.completed,
        "duration_ns": result.duration_ns,
        "goodput_mbps": result.goodput_mbps,
        "dropped": result.dropped,
        "injected_drops": result.injected_drops,
        "server_records": [asdict(r) for r in result.server_records],
        "expected_send_log": list(result.expected_send_log),
        "cwnd_trace": result.cwnd_trace,
        "queue_trace": result.queue_trace,
        "qdisc_stats": result.qdisc_stats,
        "server_stats": result.server_stats,
        "object_completion_ns": result.object_completion_ns,
        "impairment_stats": result.impairment_stats,
    }


def behaviour_encoding(result: ExperimentResult) -> bytes:
    """A single flow's ``fingerprint()`` payload before the tap's fold, as
    one ``json.dumps``: the seed, the outputs and every capture row."""
    return json.dumps(_payload(result), sort_keys=True).encode()


#: The override fields a config or a flow had before ``params`` replaced them.
_OVERRIDES = {
    ExperimentConfig: (
        "pacing_override",
        "client_ack_threshold",
        "client_max_ack_delay_ns",
        "bucket_packets",
        "spurious_rollback",
    ),
    FlowSpec: ("spurious_rollback",),
}


def _as_recorded(config) -> dict:
    """``asdict(config)`` of the shape the old column was recorded with: no
    golden has params, so each override field it replaced was None."""
    fields = asdict(config)
    assert fields.pop("params") == ()
    return {**fields, **dict.fromkeys(_OVERRIDES[type(config)])}


def reference_encoding(result: ExperimentResult) -> bytes:
    """The config-inclusive ``fingerprint()`` payload the goldens' old column
    was recorded with, verbatim."""
    payload = {**_payload(result), "config": _as_recorded(result.config)}
    return json.dumps(payload, sort_keys=True).encode()


def _multiflow_payload(result: MultiFlowResult, specs: bool) -> dict:
    return {
        "seed": result.seed,
        "sim_time_ns": result.sim_time_ns,
        "total_dropped": result.total_dropped,
        "injected_drops": result.injected_drops,
        "ack_drops": result.ack_drops,
        "unrouted": result.unrouted,
        "impairment_stats": result.impairment_stats,
        "flows": [
            {
                **({"spec": _as_recorded(f.spec)} if specs else {}),
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


def behaviour_multiflow_encoding(result: MultiFlowResult) -> bytes:
    """The ``MultiFlowResult.fingerprint()`` payload before the tap's fold: no
    flow specs, and ``drained`` always."""
    payload = _multiflow_payload(result, specs=False)
    payload["drained"] = result.drained
    return json.dumps(payload, sort_keys=True).encode()


def reference_multiflow_encoding(result: MultiFlowResult) -> bytes:
    """The spec-inclusive ``MultiFlowResult.fingerprint()`` payload the
    goldens' old column was recorded with, verbatim."""
    payload = _multiflow_payload(result, specs=True)
    if result.drained:
        payload["drained"] = result.drained
    return json.dumps(payload, sort_keys=True).encode()


def digest_encoding(result: MultiFlowResult) -> bytes:
    """The one encoding ``fingerprint()`` hashes: the counters, and per flow
    its outputs and the tap's fold of its frames."""
    payload = _multiflow_payload(result, specs=False)
    payload["drained"] = result.drained
    for flow, fields in zip(result.flows, payload["flows"]):
        fields["wire_digest"] = flow.wire_digest
        fields["qdisc_stats"] = flow.qdisc_stats
        fields["server_stats"] = flow.server_stats
        fields["object_completion_ns"] = flow.object_completion_ns
    return json.dumps(payload, sort_keys=True).encode()


def wire_fold(records) -> str:
    """The tap's digest of one flow's frames, from its capture rows: each
    row's integer fields, ``None`` as -1, packed ``<6q``, into a 128-bit
    blake2b."""
    digest = hashlib.blake2b(digest_size=16)
    for r in records:
        digest.update(
            struct.pack(
                "<6q",
                r.time_ns,
                r.wire_size,
                r.payload_size,
                -1 if r.packet_number is None else r.packet_number,
                r.dgram_id,
                -1 if r.gso_id is None else r.gso_id,
            )
        )
    return digest.hexdigest()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def behaviour_fingerprint(result) -> str:
    """The behaviour digest of an experiment or population result as
    ``fingerprint()`` took it before the tap folded each flow's frames."""
    if isinstance(result, PopulationResult):
        return _sha(behaviour_multiflow_encoding(result.multi))
    return _sha(behaviour_encoding(result))


def old_fingerprint(result) -> str:
    """The config-inclusive digest of an experiment or population result, as
    ``fingerprint()`` computed it before it became the behaviour digest."""
    if isinstance(result, PopulationResult):
        multi = _sha(reference_multiflow_encoding(result.multi))
        # The population's key as it was: ``churn`` stripped at its default.
        fields = result.config.canonical_dict()
        if not fields["churn"]:
            del fields["churn"]
        key = _sha(json.dumps(fields, sort_keys=True).encode())
        payload = {"config": key, "multi": multi}
        return _sha(json.dumps(payload, sort_keys=True).encode())
    return _sha(reference_encoding(result))


def assert_same_bytes(result: MultiFlowResult) -> None:
    encoded = result.canonical_bytes()
    expected = digest_encoding(result)
    if encoded != expected:  # name the first differing byte, not two hashes
        at = next(i for i, (a, b) in enumerate(zip(encoded, expected)) if a != b)
        pytest.fail(
            f"encodings differ at byte {at}: "
            f"{encoded[max(at - 60, 0):at + 60]!r} vs {expected[max(at - 60, 0):at + 60]!r}"
        )
    assert result.fingerprint() == _sha(expected)


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


def _spec(config: ExperimentConfig) -> FlowSpec:
    return FlowSpec(
        config.stack, config.cca, config.qdisc, config.gso, config.params, config.file_size
    )


@pytest.mark.parametrize("name", sorted(REAL_CONFIGS))
def test_real_results_encode_byte_identically(name):
    """A single experiment digests as its one-flow run, whose bytes are the
    reference's, and its flow's wire digest is the fold of its capture."""
    config = REAL_CONFIGS[name]
    result = run_experiment(config, seed=5)
    run = MultiFlowExperiment([_spec(config)], config.network, seed=5, configs=[config]).run()
    assert result.server_records
    if name == "quiche-gso":
        assert any(r.gso_id is not None for r in result.server_records)
    if name == "tcp":
        assert all(r.gso_id is None for r in result.server_records)
    if name == "quiche-lossy":
        assert result.impairment_stats
    if name == "picoquic-traced":
        assert result.cwnd_trace and result.queue_trace and len(result.object_completion_ns) == 3
    assert result.wire_digest == run.flows[0].wire_digest == wire_fold(result.server_records)
    assert_same_bytes(run)
    assert result.fingerprint() == run.fingerprint()


def _synthetic(records, **overrides) -> ExperimentResult:
    fields = dict(
        config=ExperimentConfig(file_size=kib(64)),
        seed=3,
        completed=True,
        duration_ns=123_456_789,
        goodput_mbps=12.5,
        dropped=2,
        server_records=records,
        expected_send_log=SendLog((i, 1000 * i) for i in range(len(records))),
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
        (256, [FLOW_A]),
        (513, [FLOW_A, FLOW_B]),
    ],
)
def test_synthetic_captures_encode_byte_identically(count, flows):
    """Frames through the tap fold per flow, kept or not, to the reference
    fold of that flow's rows (``None`` ids, 2**40 packet numbers and
    non-ASCII flow tuples included); kept, they are the rows."""
    records = list(_records(random.Random(count * 31 + len(flows)), count, flows))
    by_flow = {}
    for r in records:
        by_flow.setdefault(r.flow, []).append(r)
    for per_packet in (True, False):
        sniffer = Sniffer(per_packet=per_packet)
        for r in records:
            dgram = Datagram(r.flow, r.payload_size, gso_id=r.gso_id, packet_number=r.packet_number)
            dgram.wire_size, dgram.dgram_id = r.wire_size, r.dgram_id
            sniffer.capture(r.time_ns, dgram)
        folds = {flow: (len(rows), wire_fold(rows)) for flow, rows in by_flow.items()}
        assert sniffer.per_flow() == folds
        assert list(sniffer.columns) == (records if per_packet else [])


#: Bounds on what a fingerprint holds at its peak (tracemalloc) and on what a
#: send-log entry holds. With the capture encoded 4096 rows at a time and the
#: log and both traces whole (the log a list of tuples), this test read
#: 3 113 447 B and 131 B per entry; with 256-row chunks and a columnar log,
#: 199 895 B and 17 B. Now that a flow's frames enter as the tap's wire
#: digest, a fingerprint holds O(flows), whatever the capture's or the log's
#: length: 7 505 B (CPython 3.11).
FINGERPRINT_PEAK_BYTES = 256 * 1024
SEND_LOG_BYTES_PER_ENTRY = 20


def test_a_fingerprint_holds_a_chunk_and_a_send_log_entry_two_integers():
    entries = 20_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = SendLog()
        for pn in range(entries):  # as the server appends, column by column
            log.packet_number.append(pn)
            log.expected_ns.append(10**12 + 1_000 * pn)
        per_entry = (tracemalloc.get_traced_memory()[0] - before) / entries
        rng = random.Random(9)
        result = _synthetic(_records(rng, 513, [FLOW_A, FLOW_B]), expected_send_log=log)
        digest = result.fingerprint()  # first use: lazily built encoder state
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        assert result.fingerprint() == digest
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert per_entry <= SEND_LOG_BYTES_PER_ENTRY, f"{per_entry} B per send-log entry"
    assert peak <= FINGERPRINT_PEAK_BYTES, f"fingerprint peak {peak} B"


@pytest.mark.parametrize(
    "goodput", [1e-07, 1e16, 0.1 + 0.2, 0.0, 5e-324, 1.7976931348623157e308, 40.0]
)
def test_float_repr_is_preserved(goodput):
    flows = [_flow_result(FlowSpec(), goodput_mbps=goodput)]
    assert_same_bytes(MultiFlowResult(flows=flows, total_dropped=0, sim_time_ns=10**9, seed=3))


def test_every_non_capture_field_reaches_the_encoding():
    """Each fingerprinted field, changed alone, changes the digest; what a
    run only keeps or traces, the config and execution observability leave
    it alone. The capture itself enters as the tap's ``wire_digest``."""
    rng = random.Random(2)
    base = _synthetic(
        _records(rng, 5, [FLOW_A]),
        cwnd_trace=[(0, 12_000), (5, 24_000)],
        queue_trace=[(1, 3), (2, 0)],
        impairment_stats={"fwd/0/iid_loss": {"seen": 5, "injected_drops": 1}},
        injected_drops=1,
    )
    changes = dict(
        seed=4,
        completed=False,
        duration_ns=1,
        goodput_mbps=1.0,
        dropped=3,
        injected_drops=2,
        ack_drops=1,
        bytes_received=1,
        wire_packets=4,
        wire_digest=wire_fold(base.server_records[:-1]),
        sim_time_ns=1,
        qdisc_stats={},
        server_stats={},
        object_completion_ns={},
        impairment_stats={},
    )
    for field_name, value in changes.items():
        changed = replace(base, **{field_name: value})
        assert changed.fingerprint() != base.fingerprint(), field_name
    kept = dict(
        config=replace(base.config, cca="bbr"),
        server_records=base.server_records[:-1],
        expected_send_log=SendLog(),
        cwnd_trace=[],
        queue_trace=[],
        wall_time_s=9.0,
        events_processed=7,
    )
    for field_name, value in kept.items():
        assert replace(base, **{field_name: value}).fingerprint() == base.fingerprint(), field_name


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
        _flow_result(
            FlowSpec(),
            wire_digest=wire_fold([]),
            server_stats={"packets_sent": 40},
            object_completion_ns={4: 99, 0: 7},
        ),
        _flow_result(
            FlowSpec(stack="tcp", qdisc="fq", params=SF_PATCH, start_ns=7, extra_rtt_ns=9),
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
    assert b'"drained"' in encoded and b'"wire_digest"' in encoded and b'"spec"' not in encoded
    assert_same_bytes(result)


def test_real_multiflow_result_encodes_byte_identically():
    result = MultiFlowExperiment(
        [FlowSpec(file_size=kib(64)), FlowSpec(stack="tcp", file_size=kib(64))], seed=2
    ).run()
    assert [f.wire_digest for f in result.flows] == [wire_fold(f.records) for f in result.flows]
    assert_same_bytes(result)


#: Pairs of configs that spell one behaviour two ways: a field the run never
#: reads (an ETF delta without the ETF qdisc, a rollback switch on a path
#: with no spurious loss), an observability switch, the sweep length.
SPELLINGS = {
    "picoquic-etf-delta": (
        ExperimentConfig(stack="picoquic", file_size=kib(256)),
        ExperimentConfig(stack="picoquic", file_size=kib(256), etf_delta_ns=us(500)),
    ),
    "quiche-rollback": (
        ExperimentConfig(stack="quiche", file_size=kib(256)),
        ExperimentConfig(stack="quiche", file_size=kib(256), params=SF_PATCH),
    ),
    "qlog": (
        ExperimentConfig(stack="quiche", file_size=kib(256)),
        ExperimentConfig(stack="quiche", file_size=kib(256), qlog=True),
    ),
    "repetitions": (
        ExperimentConfig(stack="quiche", file_size=kib(256), repetitions=5),
        ExperimentConfig(stack="quiche", file_size=kib(256), repetitions=1),
    ),
}


@pytest.mark.parametrize("name", sorted(SPELLINGS))
def test_spellings_of_one_behaviour_share_one_digest(name):
    first, second = (run_experiment(config, seed=3) for config in SPELLINGS[name])
    assert first.config.cache_key() != second.config.cache_key()
    assert first.fingerprint() == second.fingerprint()


def test_a_stack_value_is_no_second_spelling():
    """A param at the stack's own value would be a second key for the stock
    behaviour (as these three were), so none can be configured."""
    for stack, params in [
        ("quiche", (("spurious_rollback", True),)),
        ("picoquic", (("bucket_packets", 16),)),
        ("picoquic", (("client_ack_threshold", 1_000_000), ("client_max_ack_delay_ns", ms(10)))),
    ]:
        with pytest.raises(ConfigError, match="own value"):
            ExperimentConfig(stack=stack, params=params).validate()
