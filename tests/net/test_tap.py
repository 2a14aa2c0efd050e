"""Fiber tap and sniffer capture."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.net.tap import CaptureColumns, CaptureRecord, FiberTap, Sniffer
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
    capture = sniffer.columns
    assert len(capture.from_host("a")) == 2
    assert len(capture.from_host("b")) == 1
    assert capture.from_host("b").flows == [("b", 2, "a", 1)]
    unknown = capture.from_host("c")
    assert isinstance(unknown, CaptureColumns) and len(unknown) == 0
    # A capture that is all one host's is returned as is.
    only_a = capture.from_host("a")
    assert only_a.from_host("a") is only_a


def test_capture_records_are_immutable(sim):
    import dataclasses

    sniffer = Sniffer()
    FiberTap(sim, sniffer).receive(make_dgram(10))
    with pytest.raises(dataclasses.FrozenInstanceError):
        sniffer.columns[0].time_ns = 5


_FLOWS = [("a", 1, "b", 2), ("b", 2, "a", 1), ('h"ô', 65535, "c\\", 0)]
_OPTIONAL_ID = st.one_of(st.none(), st.integers(min_value=0, max_value=2**62))
_RECORDS = st.lists(
    st.builds(
        CaptureRecord,
        time_ns=st.integers(min_value=0, max_value=2**62),
        wire_size=st.integers(min_value=0, max_value=65535),
        payload_size=st.integers(min_value=0, max_value=65535),
        flow=st.sampled_from(_FLOWS),
        packet_number=_OPTIONAL_ID,
        dgram_id=st.integers(min_value=0, max_value=2**62),
        gso_id=_OPTIONAL_ID,
    ),
    max_size=40,
)


@given(records=_RECORDS, data=st.data())
def test_columns_are_a_sequence_of_their_records(records, data):
    cols = CaptureColumns.from_records(records)
    # Rows round-trip, None <-> -1 included.
    assert list(cols) == records and len(cols) == len(records)
    assert CaptureColumns.from_records(list(cols)) == cols
    for column, field in ((cols.packet_number, "packet_number"), (cols.gso_id, "gso_id")):
        values = [getattr(r, field) for r in records]
        assert list(column) == [-1 if v is None else v for v in values]
    # Indexing and slicing agree with the list of rows.
    index = st.integers(min_value=-len(records) - 2, max_value=len(records) + 2)
    step = st.sampled_from([None, 1, 2, -1])
    piece = slice(data.draw(st.none() | index), data.draw(st.none() | index), data.draw(step))
    assert list(cols[piece]) == records[piece]
    assert set(cols[piece].flows) == {r.flow for r in records[piece]}
    if records:
        i = data.draw(st.integers(min_value=-len(records), max_value=len(records) - 1))
        assert cols[i] == records[i]
    with pytest.raises(IndexError):
        cols[len(records)]
    # Equality is by rows, not by how the flow table happens to be interned.
    assert cols[::-1][::-1] == cols
    assert (cols == CaptureColumns.from_records(records[1:])) == (len(records) == 0)
    assert cols != records
    # A capture crosses the worker boundary and the cache as a pickle.
    assert pickle.loads(pickle.dumps(cols, protocol=pickle.HIGHEST_PROTOCOL)) == cols
