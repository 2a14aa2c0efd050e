"""A ratchet on endpoint work that does not read the clock.

Python-level function calls (``sys.setprofile`` ``call`` events) per wire
packet over a 1 MiB run. The count is deterministic for a given interpreter
and tracks how many times a packet is described, asked about and handed on
between ``build_packet`` and ``on_ack_frame`` — what ROADMAP item 4 spends.

Measured on CPython 3.11 (calls per wire packet, PR 22 -> PR 23: the clock an
attribute, admission a C call, a datagram that knows its sizes, one frame per
send syscall; PR 20 read 253 / 212 / 256 / 124):

=================  ======  =====  =====  =====  =====
config             before  after  then   now    bound
=================  ======  =====  =====  =====  =====
quiche:cubic:fq     191.2  133.0  131.0  125.6    126
picoquic:bbr        156.4  110.1  108.1  102.4    103
ngtcp2:cubic        191.3  135.3  133.3  127.6    128
tcp:cubic           106.9   72.8   70.8   62.0     63
=================  ======  =====  =====  =====  =====

``then`` -> ``now``: the same-instant hand-off (``Simulator.call_soon``), the
flattened qdisc -> GSO -> NIC -> link chain, and a TCP segment that carries
its wire size.

ROADMAP item 4's round target is ``<= 160 / 130 / 160`` in this unit. A
change that pushes a count over its bound added per-packet calls to the
engine, kernel, net or endpoint path; lower the bound when a PR earns it.
A call count cannot see a loop inside one function (the TCP sender's per-ACK
window scan was one list comprehension): ``tests/tcp/test_ack_cost.py`` counts
bytecodes for that.
"""

import sys

import pytest

from repro.framework.config import ExperimentConfig
from repro.framework.experiment import run_experiment
from repro.units import mib


def _calls_per_wire_packet(config: ExperimentConfig) -> float:
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = run_experiment(config, seed=1)
    finally:
        sys.setprofile(previous)
    assert result.completed
    return calls / result.packets_on_wire


@pytest.mark.parametrize(
    "stack, cca, qdisc, bound",
    [
        ("quiche", "cubic", "fq", 126),
        ("picoquic", "bbr", "none", 103),
        ("ngtcp2", "cubic", "none", 128),
        ("tcp", "cubic", "none", 63),
    ],
    # The bound stays out of the test id, so lowering it renames nothing.
    ids=["quiche-cubic-fq", "picoquic-bbr-none", "ngtcp2-cubic-none", "tcp-cubic-none"],
)
def test_python_calls_per_wire_packet(stack, cca, qdisc, bound):
    config = ExperimentConfig(stack=stack, cca=cca, qdisc=qdisc, file_size=mib(1), seed=1)
    assert _calls_per_wire_packet(config) <= bound


def test_paper_workflow_builds_no_capture_record(monkeypatch, tmp_path):
    """Run, validate, fingerprint, store ingest and the figure metrics read
    the capture's columns: none of them materialises a row object."""
    from repro.framework.store import ResultStore
    from repro.framework.validate import validate_result
    from repro.metrics.gaps import Distribution, inter_packet_gaps
    from repro.metrics.precision import pacing_precision_ns
    from repro.metrics.trains import packet_trains, packets_by_train_length
    from repro.net.tap import CaptureColumns

    def no_rows(self, i):
        raise AssertionError(f"CaptureRecord built for row {i}")

    monkeypatch.setattr(CaptureColumns, "record", no_rows)
    config = ExperimentConfig(stack="quiche", qdisc="fq", gso="on", file_size=mib(1), seed=1)
    result = run_experiment(config, seed=1)
    capture = result.server_records
    assert isinstance(capture, CaptureColumns) and len(capture) == result.packets_on_wire > 0
    validate_result(result)
    fingerprint = result.fingerprint()
    with ResultStore(tmp_path / "c.sqlite") as store:
        store.record_result("ratchet", 0, result, fingerprint=fingerprint)
        assert store.rep_count() == 1
    assert len(Distribution(inter_packet_gaps(capture)).cdf()[0]) > 0
    assert sum(packet_trains(capture)) == len(capture)
    assert sum(packets_by_train_length(capture).values()) == len(capture)
    assert pacing_precision_ns(result.expected_send_log, capture) > 0
    with pytest.raises(AssertionError, match="CaptureRecord built"):
        capture[0]
