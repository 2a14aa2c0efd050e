"""Datagram metadata and size accounting."""

from hypothesis import given, strategies as st

from repro.net.packet import Datagram, ETHERNET_OVERHEAD, WIRE_FRAMING

FLOW = ("10.0.0.1", 443, "10.0.0.2", 40000)


@given(st.integers(min_value=0, max_value=65507))
def test_wire_size_adds_headers(size):
    d = Datagram(flow=FLOW, payload_size=size)
    assert d.wire_size == d.payload_size + ETHERNET_OVERHEAD


@given(st.integers(min_value=0, max_value=65507))
def test_serialized_size_adds_framing(size):
    d = Datagram(flow=FLOW, payload_size=size)
    assert d.serialized_size == d.wire_size + WIRE_FRAMING


def test_copy_draws_no_id_and_keeps_every_field():
    d = Datagram(FLOW, 1200, payload=object(), txtime_ns=5, gso_id=9, packet_number=4, ecn=2)
    dup = d.copy()
    after = Datagram(flow=FLOW, payload_size=1)
    assert dup is not d
    assert after.dgram_id == d.dgram_id + 1
    assert all(getattr(dup, name) == getattr(d, name) for name in Datagram.__slots__)


def test_dgram_ids_unique_and_increasing():
    a = Datagram(flow=FLOW, payload_size=1)
    b = Datagram(flow=FLOW, payload_size=1)
    assert b.dgram_id > a.dgram_id


def test_reply_flow_swaps_endpoints():
    d = Datagram(flow=FLOW, payload_size=1)
    assert d.reply_flow() == ("10.0.0.2", 40000, "10.0.0.1", 443)


def test_repr_mentions_packet_number():
    d = Datagram(flow=FLOW, payload_size=1, packet_number=42)
    assert "pn=42" in repr(d)


def test_optional_fields_default_none():
    d = Datagram(flow=FLOW, payload_size=1)
    assert d.txtime_ns is None
    assert d.gso_id is None
    assert d.expected_send_ns is None
