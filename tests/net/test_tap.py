"""Fiber tap and sniffer capture."""

from repro.net.tap import CaptureColumns, FiberTap, Sniffer
from tests.conftest import Collector, make_dgram


def test_tap_forwards_and_captures(sim):
    sniffer = Sniffer()
    col = Collector(sim)
    tap = FiberTap(sim, sniffer, sink=col)
    d = make_dgram(1252, pn=7)
    sim.schedule(100, tap.receive, d)
    sim.run()
    assert len(col) == 1
    assert len(sniffer) == 1
    rec = sniffer.columns[0]
    assert rec.time_ns == 100
    assert rec.packet_number == 7
    assert rec.wire_size == d.wire_size


def test_tap_adds_no_delay(sim):
    sniffer = Sniffer()
    col = Collector(sim)
    tap = FiberTap(sim, sniffer, sink=col)
    sim.schedule(42, tap.receive, make_dgram(10))
    sim.run()
    assert col.times == [42]


def test_sniffer_filters_by_source(sim):
    sniffer = Sniffer()
    tap = FiberTap(sim, sniffer)
    tap.receive(make_dgram(10, flow=("a", 1, "b", 2)))
    tap.receive(make_dgram(10, flow=("b", 2, "a", 1)))
    tap.receive(make_dgram(10, flow=("a", 1, "b", 2)))
    assert len(sniffer.from_host("a")) == 2
    assert len(sniffer.from_host("b")) == 1
    assert sniffer.from_host("b").flows == [("b", 2, "a", 1)]
    unknown = sniffer.from_host("c")
    assert isinstance(unknown, CaptureColumns) and len(unknown) == 0


def test_capture_records_are_immutable(sim):
    import dataclasses
    import pytest

    sniffer = Sniffer()
    FiberTap(sim, sniffer).receive(make_dgram(10))
    with pytest.raises(dataclasses.FrozenInstanceError):
        sniffer.columns[0].time_ns = 5
