"""A ratchet on endpoint work that does not read the clock.

Python-level function calls (``sys.setprofile`` ``call`` events) per wire
packet over a 1 MiB run. The count is deterministic for a given interpreter
and tracks how many times a packet is described, asked about and handed on
between ``build_packet`` and ``on_ack_frame`` — what ROADMAP item 4 spends.

Measured on CPython 3.11 (calls per wire packet; the QUIC rows PR 20 -> PR 21,
the TCP row PR 21 -> PR 22):

=================  ======  =====  =====
config             before  after  bound
=================  ======  =====  =====
quiche:cubic:fq     253.2  191.2    200
picoquic:bbr        212.3  156.4    165
ngtcp2:cubic        256.3  191.3    200
tcp:cubic           124.2  106.9    112
=================  ======  =====  =====

ROADMAP item 4's target is ``calls per wire packet <= 200`` in this unit. A
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
        ("quiche", "cubic", "fq", 200),
        ("picoquic", "bbr", "none", 165),
        ("ngtcp2", "cubic", "none", 200),
        ("tcp", "cubic", "none", 112),
    ],
)
def test_python_calls_per_wire_packet(stack, cca, qdisc, bound):
    config = ExperimentConfig(stack=stack, cca=cca, qdisc=qdisc, file_size=mib(1), seed=1)
    assert _calls_per_wire_packet(config) <= bound
