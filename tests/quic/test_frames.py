"""Frame encode/parse round trips and ACK range arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import EncodingError
from repro.quic.frames import (
    AckFrame,
    ConnectionCloseFrame,
    CryptoFrame,
    DataBlockedFrame,
    HandshakeDoneFrame,
    MaxDataFrame,
    MaxStreamDataFrame,
    PaddingFrame,
    PingFrame,
    StreamFrame,
    StreamDataBlockedFrame,
    parse_frames,
)
from repro.quic.varint import varint_len


def roundtrip(frame):
    parsed = parse_frames(frame.encode())
    assert len(parsed) == 1
    return parsed[0]


def test_padding_runs_collapse():
    frames = parse_frames(bytes(10))
    assert frames == [PaddingFrame(10)]
    assert frames[0].encoded_len == 10


def test_ping_roundtrip():
    assert roundtrip(PingFrame()) == PingFrame()


def test_crypto_roundtrip():
    f = CryptoFrame(offset=100, data=b"hello")
    assert roundtrip(f) == f


def test_stream_roundtrip_all_flag_combinations():
    for offset in (0, 500):
        for fin in (False, True):
            f = StreamFrame(stream_id=4, offset=offset, data=b"abc", fin=fin)
            assert roundtrip(f) == f


def test_stream_encoded_len_matches_encoding():
    for offset in (0, 1, 16384):
        f = StreamFrame(stream_id=0, offset=offset, data=bytes(100), fin=True)
        assert f.encoded_len == len(f.encode())


def test_stream_header_overhead_helper():
    f = StreamFrame(stream_id=8, offset=300, data=bytes(50))
    overhead = StreamFrame.header_overhead(8, 300, 50)
    assert overhead == f.encoded_len - 50


#: Values on both sides of every varint length boundary, 8-byte ones included.
_varint_values = st.one_of(
    st.integers(min_value=0, max_value=(1 << 62) - 1),
    st.sampled_from(
        [0, 1, 63, 64, (1 << 14) - 1, 1 << 14, (1 << 30) - 1, 1 << 30, (1 << 62) - 1]
    ),
)


@given(_varint_values, _varint_values, _varint_values)
def test_stream_header_overhead_is_the_varint_sum(stream_id, offset, length):
    expected = 1 + varint_len(stream_id) + varint_len(length)
    if offset:
        expected += varint_len(offset)
    assert StreamFrame.header_overhead(stream_id, offset, length) == expected
    # A frame of byte counts carries the same header as one of bytes.
    assert StreamFrame(stream_id, offset, length).encoded_len == expected + length


@pytest.mark.parametrize("fields", [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (1 << 62, 0, 0), (0, 1 << 62, 1)])
def test_stream_header_overhead_rejects_what_no_varint_encodes(fields):
    with pytest.raises(EncodingError):
        StreamFrame.header_overhead(*fields)


def test_control_frames_roundtrip():
    for frame in [
        MaxDataFrame(123456),
        MaxStreamDataFrame(4, 99999),
        DataBlockedFrame(5000),
        StreamDataBlockedFrame(8, 777),
        HandshakeDoneFrame(),
        ConnectionCloseFrame(error_code=3, reason=b"bye"),
    ]:
        assert roundtrip(frame) == frame


def test_ack_frame_single_range():
    f = AckFrame(largest=10, ack_delay_us=800, ranges=((0, 10),))
    parsed = roundtrip(f)
    assert parsed.largest == 10
    assert parsed.ranges == ((0, 10),)
    # Delay is quantized by the exponent (2^3 us).
    assert parsed.ack_delay_us == 800 // 8 * 8


def test_ack_frame_multiple_ranges():
    f = AckFrame(largest=100, ack_delay_us=0, ranges=((90, 100), (50, 70), (0, 10)))
    parsed = roundtrip(f)
    assert parsed.ranges == ((90, 100), (50, 70), (0, 10))


def test_ack_frame_covered_numbers():
    f = AckFrame(largest=5, ack_delay_us=0, ranges=((4, 5), (0, 1)))
    assert f.acked_packet_numbers() == [4, 5, 0, 1]


def test_ack_frame_validates_largest():
    with pytest.raises(EncodingError):
        AckFrame(largest=10, ack_delay_us=0, ranges=((0, 5),))


def test_ack_frame_needs_ranges():
    with pytest.raises(EncodingError):
        AckFrame(largest=0, ack_delay_us=0, ranges=())


def test_ack_frame_rejects_overlapping_ranges_on_encode():
    f = AckFrame(largest=10, ack_delay_us=0, ranges=((5, 10), (4, 6)))
    with pytest.raises(EncodingError):
        f.encode()


def test_multiple_frames_parse_in_order():
    blob = PingFrame().encode() + MaxDataFrame(5).encode() + StreamFrame(0, 0, b"x").encode()
    parsed = parse_frames(blob)
    assert [type(f) for f in parsed] == [PingFrame, MaxDataFrame, StreamFrame]


def test_unknown_frame_type_rejected():
    with pytest.raises(EncodingError):
        parse_frames(bytes([0x3F]))


def test_ack_eliciting_classification():
    assert PingFrame().ack_eliciting
    assert StreamFrame(0, 0, b"x").ack_eliciting
    assert MaxDataFrame(1).ack_eliciting
    assert not AckFrame(0, 0, ((0, 0),)).ack_eliciting
    assert not PaddingFrame(3).ack_eliciting
    assert not ConnectionCloseFrame().ack_eliciting


@st.composite
def ack_ranges(draw):
    """Generate valid descending, disjoint ACK ranges."""
    count = draw(st.integers(min_value=1, max_value=8))
    ranges = []
    hi = draw(st.integers(min_value=0, max_value=10_000))
    for _ in range(count):
        lo = hi - draw(st.integers(min_value=0, max_value=50))
        if lo < 0:
            lo = 0
        ranges.append((lo, hi))
        hi = lo - 2 - draw(st.integers(min_value=0, max_value=50))
        if hi < 0:
            break
    return tuple(ranges)


@given(ack_ranges(), st.integers(min_value=0, max_value=1 << 20))
def test_ack_roundtrip_property(ranges, delay):
    f = AckFrame(largest=ranges[0][1], ack_delay_us=delay, ranges=ranges)
    parsed = parse_frames(f.encode())[0]
    assert parsed.ranges == ranges
    assert parsed.largest == f.largest


@given(
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=0, max_value=100_000),
    st.binary(min_size=0, max_size=200),
    st.booleans(),
)
def test_stream_roundtrip_property(sid, offset, data, fin):
    f = StreamFrame(sid, offset, data, fin)
    assert parse_frames(f.encode())[0] == f
