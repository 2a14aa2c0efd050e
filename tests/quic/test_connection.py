"""Connection-level behaviour: handshake, data transfer, acks, loss handling.

These tests drive two Connection objects directly (no network, no drivers),
passing packets between them by hand with controlled timing.
"""

import pytest

from repro.cc.newreno import NewReno
from repro.errors import FlowControlError, ProtocolError
from repro.quic.connection import Connection, ConnectionConfig
from repro.quic.frames import StreamFrame
from repro.quic.packet import PacketType, QuicPacket
from repro.quic.stream import DataSource
from repro.units import kib, mib, ms


def make_pair(**overrides):
    server_cfg = ConnectionConfig(**overrides)
    client_cfg = ConnectionConfig(**overrides)
    server = Connection("server", config=server_cfg)
    client = Connection("client", config=client_cfg)
    return server, client


def over_the_wire(built):
    """The packet as a receiver of its wire bytes sees it: encoded, then decoded."""
    return QuicPacket.decode(built.packet.encode())


def deliver_stream(conn, offset, length, now=ms(1)):
    """Stream 0 bytes ``[offset, offset + length)`` arrive in one packet."""
    frame = StreamFrame(0, offset, length)
    conn.on_datagram(QuicPacket(PacketType.ONE_RTT, conn.packets_received, [frame]), now)


def pump(a, b, now, limit=100):
    """Exchange all pending packets between two connections at time `now`."""
    moved = 0
    progress = True
    while progress and moved < limit:
        progress = False
        for src, dst in ((a, b), (b, a)):
            while src.wants_to_send(now):
                built = src.build_packet(now)
                if built is None:
                    break
                src.on_packet_sent(built, now)
                dst.on_datagram(over_the_wire(built), now)
                moved += 1
                progress = True
    return moved


def complete_handshake(server, client, now=0):
    client.start_handshake()
    pump(client, server, now)
    assert server.established and client.established


def test_role_validation():
    with pytest.raises(ProtocolError):
        Connection("middlebox")


def test_only_client_starts_handshake():
    server, _ = make_pair()
    with pytest.raises(ProtocolError):
        server.start_handshake()


def test_handshake_establishes_both_sides():
    server, client = make_pair()
    complete_handshake(server, client)
    assert client.handshake_done_received


def test_first_client_packet_is_padded_initial():
    _, client = make_pair()
    client.start_handshake()
    built = client.build_packet(0)
    assert built.packet.packet_type is PacketType.INITIAL
    assert built.size >= client.config.initial_pad_to


def test_file_transfer_completes():
    server, client = make_pair()
    complete_handshake(server, client)
    server.open_send_stream(0, DataSource(kib(50)))
    now = ms(1)
    for _ in range(200):
        pump(server, client, now)
        now += ms(10)
        server.on_timeout(now)
        client.on_timeout(now)
        if client.transfer_complete(0):
            break
    assert client.transfer_complete(0)
    assert client.recv_streams[0].final_size == kib(50)


def test_packets_respect_mtu():
    server, client = make_pair()
    complete_handshake(server, client)
    server.open_send_stream(0, DataSource(kib(100)))
    built = server.build_packet(ms(1))
    assert built.size <= server.config.mtu_payload


def test_cwnd_limits_burst():
    server, client = make_pair()
    complete_handshake(server, client)
    server.open_send_stream(0, DataSource(mib(10)))
    sent = 0
    while server.wants_to_send(ms(1)):
        built = server.build_packet(ms(1))
        if built is None:
            break
        server.on_packet_sent(built, ms(1))
        sent += 1
    # Initial window is 10 packets; handshake consumed some budget.
    assert 5 <= sent <= 12
    assert server.recovery.bytes_in_flight <= server.cc.cwnd


def test_acks_free_window():
    server, client = make_pair()
    complete_handshake(server, client)
    server.open_send_stream(0, DataSource(mib(10)))
    now = ms(1)
    while server.wants_to_send(now):
        built = server.build_packet(now)
        if built is None:
            break
        server.on_packet_sent(built, now)
        client.on_datagram(over_the_wire(built), now)
    # Deliver only the client's ACKs back to the server.
    later = now + ms(40)
    while client.wants_to_send(later):
        built = client.build_packet(later)
        if built is None:
            break
        client.on_packet_sent(built, later)
        server.on_datagram(over_the_wire(built), later)
    assert server.wants_to_send(later)


def test_ack_only_packet_not_ack_eliciting():
    server, client = make_pair()
    complete_handshake(server, client)
    server.open_send_stream(0, DataSource(kib(5)))
    now = ms(1)
    while server.wants_to_send(now):
        built = server.build_packet(now)
        if built is None:
            break
        server.on_packet_sent(built, now)
        client.on_datagram(over_the_wire(built), now)
    ack_packet = client.build_packet(now)
    assert ack_packet is not None
    assert not ack_packet.ack_eliciting


def test_pto_fires_and_sends_probe():
    server, client = make_pair()
    complete_handshake(server, client)
    server.open_send_stream(0, DataSource(kib(5)))
    now = ms(1)
    built = server.build_packet(now)
    server.on_packet_sent(built, now)  # never delivered
    deadline = server.next_timeout(now)
    assert deadline is not None
    server.on_timeout(deadline)
    assert server.probe_packets_pending >= 1
    probe = server.build_packet(deadline)
    assert probe is not None and probe.ack_eliciting


def test_lost_stream_data_is_retransmitted():
    server, client = make_pair()
    complete_handshake(server, client)
    server.open_send_stream(0, DataSource(kib(20)))
    now = ms(1)
    # Send the window; drop the first data packet, deliver the rest.
    packets = []
    while server.wants_to_send(now):
        built = server.build_packet(now)
        if built is None:
            break
        server.on_packet_sent(built, now)
        packets.append(built)
    for built in packets[1:]:
        client.on_datagram(over_the_wire(built), now + ms(20))
    # Client acks; server detects the hole.
    pump(client, server, now + ms(40))
    stream = server.send_streams[0]
    assert stream.has_retx or server.recovery.lost_packets_total > 0


def test_flow_control_update_issued():
    server, client = make_pair(recv_stream_window=kib(16), recv_conn_window=kib(16))
    complete_handshake(server, client)
    server.open_send_stream(0, DataSource(kib(64)))
    now = ms(1)
    for _ in range(100):
        pump(server, client, now)
        now += ms(5)
        server.on_timeout(now)
        client.on_timeout(now)
        if client.transfer_complete(0):
            break
    # The transfer exceeds the initial 16 KiB window, so it can only complete
    # if MAX_(STREAM_)DATA updates flowed back.
    assert client.transfer_complete(0)
    assert server.conn_send_limit.limit > kib(16)


def test_connection_close_stops_sending():
    server, client = make_pair()
    complete_handshake(server, client)
    from repro.quic.frames import ConnectionCloseFrame

    close = QuicPacket(PacketType.ONE_RTT, 99, [ConnectionCloseFrame(0, b"done")])
    server.on_datagram(close, ms(5))
    assert server.closed
    assert not server.wants_to_send(ms(5))
    assert server.build_packet(ms(5)) is None


def test_spurious_loss_reported_to_cc():
    calls = []

    class SpyCC(NewReno):
        def on_spurious_loss(self, pns, now, lost_total):
            calls.append(list(pns))

    server = Connection("server", cc=SpyCC())
    client = Connection("client")
    client.start_handshake()
    pump(client, server, 0)
    server.open_send_stream(0, DataSource(kib(30)))
    now = ms(1)
    packets = []
    while server.wants_to_send(now):
        built = server.build_packet(now)
        if built is None:
            break
        server.on_packet_sent(built, now)
        packets.append(built)
    # Deliver all but the first two; acks make the server declare them lost.
    for built in packets[2:]:
        client.on_datagram(over_the_wire(built), now + ms(20))
    pump(client, server, now + ms(40))
    assert server.recovery.lost_packets_total >= 1
    # The "lost" packets arrive very late after all; their ACK is spurious.
    for built in packets[:2]:
        client.on_datagram(over_the_wire(built), now + ms(45))
    pump(client, server, now + ms(50))
    assert calls, "late ACK should surface a spurious-loss event"


# -- flow-control violations (the connection does the arithmetic on the
# limits' fields; a violation still raises through check / consume) ---------


def _deliver_stream(conn, pn, stream_id, offset, length):
    packet = QuicPacket(PacketType.ONE_RTT, pn, [StreamFrame(stream_id, offset, length)])
    conn.on_datagram(packet, ms(1))


def test_peer_writing_past_the_stream_limit_raises():
    server, client = make_pair(recv_stream_window=kib(4), recv_conn_window=kib(64))
    complete_handshake(server, client)
    _deliver_stream(client, 100, 0, 0, kib(4))  # exactly at the limit; consumed, so it moves on
    with pytest.raises(FlowControlError, match=r"peer wrote to offset 8193 beyond advertised 8192"):
        _deliver_stream(client, 101, 0, kib(4), kib(4) + 1)


def test_peer_writing_past_the_connection_limit_raises():
    server, client = make_pair(recv_stream_window=kib(4), recv_conn_window=kib(6))
    complete_handshake(server, client)
    client.conn_recv_limit.advertised = kib(6)  # no window update in between
    _deliver_stream(client, 100, 0, 0, 1000)
    client.conn_recv_limit.advertised = kib(1)
    with pytest.raises(FlowControlError, match=r"peer wrote to offset 2000 beyond advertised 1024"):
        _deliver_stream(client, 101, 4, 0, 1000)


def test_sender_consuming_more_than_its_credit_raises():
    server, client = make_pair()
    complete_handshake(server, client)
    server.open_send_stream(0, DataSource(kib(50)))
    built = server.build_packet(ms(1))
    server.on_packet_sent(built, ms(1))
    # Forget what was consumed: the next frame's advance (its end offset
    # minus ``used``) now exceeds the credit the frame was sized to.
    limit = server.stream_send_limits[0]
    limit.limit, limit.used = 10, 0
    with pytest.raises(FlowControlError, match=r"attempt to consume \d+B with only 10B of credit"):
        server.build_packet(ms(1))
