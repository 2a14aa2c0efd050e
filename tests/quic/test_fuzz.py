"""Robustness: the codec fails cleanly (EncodingError), and a connection
survives whatever a datagram decodes into.

Inside the simulator packets travel as objects, so the codec is the oracle
that keeps ``encoded_len`` honest, not a receive path. On arbitrary bytes it
must either parse or raise the library's encoding error; any other exception
is a bug. A packet that does decode, however nonsensical, must be processed
by ``Connection.on_datagram`` or refused with a protocol error. Hypothesis
drives both with random and with mutated-valid inputs.
"""

from hypothesis import assume, given, strategies as st

from repro.errors import EncodingError, ProtocolError
from repro.quic.connection import Connection
from repro.quic.frames import StreamFrame, parse_frames
from repro.quic.packet import PacketType, QuicPacket
from repro.quic.varint import decode_varint


@given(st.binary(min_size=0, max_size=400))
def test_frame_parser_never_crashes(data):
    try:
        frames = parse_frames(data)
    except EncodingError:
        return
    assert isinstance(frames, list)


@given(st.binary(min_size=0, max_size=100))
def test_packet_decoder_never_crashes(data):
    try:
        packet = QuicPacket.decode(data)
    except EncodingError:
        return
    assert packet.packet_number >= 0


@given(st.binary(min_size=0, max_size=20), st.integers(min_value=0, max_value=30))
def test_varint_decoder_never_crashes(data, offset):
    try:
        value, end = decode_varint(data, offset)
    except EncodingError:
        return
    assert 0 <= value
    assert offset < end <= len(data)


@st.composite
def mutated_packet(draw):
    """A valid encoded packet with one byte flipped."""
    pn = draw(st.integers(min_value=0, max_value=1000))
    data = draw(st.binary(min_size=1, max_size=200))
    encoded = bytearray(
        QuicPacket(PacketType.ONE_RTT, pn, [StreamFrame(0, 0, data)]).encode()
    )
    index = draw(st.integers(min_value=0, max_value=len(encoded) - 1))
    flip = draw(st.integers(min_value=1, max_value=255))
    encoded[index] ^= flip
    return bytes(encoded)


def _decoded(data):
    try:
        return QuicPacket.decode(data)
    except EncodingError:
        return None


@given(mutated_packet())
def test_connection_survives_mutated_packets(data):
    """A mutated packet that still decodes is processed, or refused with a
    protocol error (a STREAM frame past the flow-control limit, data past a
    final size); it never crashes the connection."""
    packet = _decoded(data)
    assume(packet is not None)
    conn = Connection("server")
    try:
        conn.on_datagram(packet, 0)
    except ProtocolError:
        return
    assert conn.packets_received == 1


@given(st.lists(st.binary(min_size=0, max_size=120), min_size=1, max_size=10))
def test_connection_survives_random_garbage(blobs):
    """Whatever random bytes decode into, the connection processes it or
    refuses it with a protocol error."""
    packets = [p for p in map(_decoded, blobs) if p is not None]
    conn = Connection("server")
    for received, packet in enumerate(packets, 1):
        try:
            conn.on_datagram(packet, 0)
        except ProtocolError:
            return
        assert conn.packets_received == received
