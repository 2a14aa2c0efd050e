"""Span arithmetic on synthetic spans, and the promise that installing the
wrappers changes nothing the program computes.

Run from the repo root: ``PYTHONPATH=src python -m pytest benchmarks/bench/tests -q``.
"""

from __future__ import annotations

import pytest

from benchmarks.bench import layers
from benchmarks.bench.tracer import NullTracer, Tracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


def test_nested_spans_split_time_into_self_times():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    leaf = tracer.wrap(lambda: clock.advance(5), "x.leaf")

    def mid():
        clock.advance(2)
        leaf()
        clock.advance(3)
        leaf()

    mid = tracer.wrap(mid, "x.mid")

    def top():
        clock.advance(1)
        mid()
        clock.advance(4)

    tracer.wrap(top, "y.top")()

    assert tracer.aggregates == {"x.leaf": [2, 10, 10], "x.mid": [1, 15, 5], "y.top": [1, 20, 5]}
    assert sum(agg[2] for agg in tracer.aggregates.values()) == clock.now
    # (id, name, start, end, parent, pass): recorded as spans close, ids by entry.
    by_id = {span[0]: span for span in tracer.raw}
    assert [by_id[i][1] for i in range(4)] == ["y.top", "x.mid", "x.leaf", "x.leaf"]
    assert [by_id[i][4] for i in range(4)] == [-1, 0, 1, 1]
    assert by_id[1][2:4] == (1, 16)


def test_recursive_span_counts_self_time_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def descend(depth):
        clock.advance(1)
        if depth:
            traced(depth - 1)

    traced = tracer.wrap(descend, "x.descend")
    traced(3)
    # Inclusive totals double-count the nesting (4+3+2+1); self time does not.
    assert tracer.aggregates["x.descend"] == [4, 10, 4]


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.advance(3)
        raise KeyError("x")

    def outer():
        clock.advance(1)
        with pytest.raises(KeyError):
            tracer.call("x.boom", boom)
        clock.advance(1)

    tracer.call("x.outer", outer)
    assert tracer.aggregates == {"x.outer": [1, 5, 2], "x.boom": [1, 3, 3]}


def test_raw_spans_are_capped_but_aggregates_are_not():
    tracer = Tracer(clock=FakeClock(), raw_limit=2)
    tick = tracer.wrap(lambda: None, "x.tick")
    for _ in range(5):
        tick()
    assert len(tracer.raw) == 2
    assert tracer.aggregates["x.tick"][0] == 5
    assert tracer.take() == {"x.tick": [5, 0, 0]}
    assert tracer.take() == {}


def test_null_tracer_just_calls():
    assert NullTracer().call("x.add", lambda a, b=0: a + b, 1, b=2) == 3


def test_wrappers_leave_the_fingerprint_identical_and_uninstall_cleanly():
    from repro.framework.config import ExperimentConfig
    from repro.framework.experiment import run_experiment
    from repro.kernel.socket import UdpSocket
    from repro.quic.connection import Connection
    from repro.units import mib

    config = ExperimentConfig(stack="quiche", cca="cubic", qdisc="fq", file_size=mib(1))
    build_packet = vars(Connection)["build_packet"]
    untraced = run_experiment(config, seed=3).fingerprint()

    tracer = Tracer()
    layers.install(tracer)
    try:
        assert tracer.missing == []
        assert UdpSocket.receive is UdpSocket.deliver  # the alias follows the wrapper
        assert vars(Connection)["build_packet"] is not build_packet
        traced = run_experiment(config, seed=3)
        counters = layers.read_counters(tracer)
        spans = tracer.take()
    finally:
        tracer.uninstall()

    assert traced.fingerprint() == untraced
    assert counters["events"] == traced.events_processed
    assert spans["sim.Simulator.run"][0] > 0
    assert spans["quic.Connection.on_packet_sent"][0] >= traced.server_stats["packets_sent"]
    assert spans["net.Sniffer.capture"][0] == traced.packets_on_wire
    # Self times partition the two top-level spans (build, then run).
    top_level = spans["framework.Experiment.__init__"][1] + spans["framework.Experiment.run"][1]
    assert sum(s[2] for s in spans.values()) == top_level

    assert vars(Connection)["build_packet"] is build_packet
    assert UdpSocket.receive is UdpSocket.deliver
    assert run_experiment(config, seed=3).fingerprint() == untraced
    assert tracer.take() == {}
