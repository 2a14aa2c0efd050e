"""Connection edge cases: probe behaviour, control-frame loss."""

from repro.quic.connection import Connection, ConnectionConfig
from repro.quic.frames import MaxDataFrame
from repro.quic.stream import DataSource
from repro.units import kib, ms
from tests.quic.test_connection import (
    complete_handshake,
    deliver_stream,
    make_pair,
    over_the_wire,
    pump,
)


def test_pto_backoff_doubles():
    server, client = make_pair()
    complete_handshake(server, client)
    server.open_send_stream(0, DataSource(kib(5)))
    built = server.build_packet(ms(1))
    server.on_packet_sent(built, ms(1))
    first = server.recovery.next_timeout(); assert first
    server.on_timeout(first)
    second = server.recovery.next_timeout()
    # Exponential PTO backoff.
    assert second - first >= (first - ms(1)) * 0.9


def test_probe_carries_retransmittable_data():
    server, client = make_pair()
    complete_handshake(server, client)
    server.open_send_stream(0, DataSource(kib(5)))
    built = server.build_packet(ms(1))
    server.on_packet_sent(built, ms(1))
    deadline = server.recovery.next_timeout()
    server.on_timeout(deadline)
    probe = server.build_packet(deadline)
    assert probe is not None
    assert probe.ack_eliciting


def test_max_data_frame_loss_is_reissued():
    server, client = make_pair(recv_conn_window=kib(8), recv_stream_window=kib(8))
    complete_handshake(server, client)
    server.open_send_stream(0, DataSource(kib(64)))
    now = ms(1)
    # Move data until the client wants to send a window update.
    for _ in range(50):
        pump(server, client, now)
        now += ms(5)
        server.on_timeout(now)
        client.on_timeout(now)
        if client.transfer_complete(0):
            break
    assert client.transfer_complete(0)
    # The transfer needed multiple MAX_DATA updates to complete.
    assert server.conn_send_limit.limit > kib(8)


def test_max_data_reissue_uses_fresh_limit():
    client = Connection("client", config=ConnectionConfig(recv_conn_window=kib(8)))
    # Simulate a lost MAX_DATA: queue one, receive more, re-queue.
    deliver_stream(client, 0, kib(4))  # half the window: no update yet
    assert client._control_frames == []
    client._queue_max_data(ms(1))
    first = [f for f in client._control_frames if isinstance(f, MaxDataFrame)][0]
    deliver_stream(client, kib(4), kib(2))
    client._queue_max_data(ms(2))
    frames = [f for f in client._control_frames if isinstance(f, MaxDataFrame)]
    assert len(frames) == 1  # deduplicated
    assert frames[0].max_data > first.max_data


def test_handshake_crypto_retransmission():
    server, client = make_pair()
    client.start_handshake()
    # The INITIAL is lost; the PTO fires and the client retries.
    built = client.build_packet(0)
    client.on_packet_sent(built, 0)
    deadline = client.recovery.next_timeout()
    client.on_timeout(deadline)
    retry = client.build_packet(deadline)
    assert retry is not None
    client.on_packet_sent(retry, deadline)
    server.on_datagram(over_the_wire(retry), deadline + ms(20))
    pump(server, client, deadline + ms(40))
    assert server.established and client.established


def test_client_ack_threshold_respected():
    server, client = make_pair(ack_threshold=10, max_ack_delay_ns=ms(25))
    complete_handshake(server, client)
    server.open_send_stream(0, DataSource(kib(20)))
    now = ms(1)
    sent = 0
    while server.wants_to_send(now) and sent < 5:
        built = server.build_packet(now)
        if built is None:
            break
        server.on_packet_sent(built, now)
        client.on_datagram(over_the_wire(built), now)
        sent += 1
    # Only 5 ack-eliciting packets: below the threshold, no immediate ack;
    # only the (already-armed) delayed-ACK deadline remains.
    assert not client.ack_mgr.should_ack_now(now)
    assert client.ack_mgr.ack_deadline() <= now + ms(25)


def test_bytes_conservation_over_lossless_transfer():
    server, client = make_pair()
    complete_handshake(server, client)
    size = kib(40)
    server.open_send_stream(0, DataSource(size))
    now = ms(1)
    for _ in range(200):
        pump(server, client, now)
        now += ms(10)
        server.on_timeout(now)
        client.on_timeout(now)
        if client.transfer_complete(0):
            break
    stream = client.recv_streams[0]
    assert stream.final_size == size
    # No loss: zero retransmitted stream bytes, no duplicates received.
    assert server.stream_bytes_retx == 0
    assert stream.bytes_received_total == size


def test_wants_to_send_is_a_pure_query_when_flow_control_blocks():
    """Asking must not change the connection: how often a driver polls is a
    property of its event loop, not of flow control."""
    import pickle

    server, client = make_pair(peer_max_data=kib(4), peer_max_stream_data=kib(4))
    complete_handshake(server, client)
    server.open_send_stream(0, DataSource(kib(64)))
    now = ms(1)
    while server.wants_to_send(now):
        server.on_packet_sent(server.build_packet(now), now)
    # The window has room, data is queued, and only the peer's limit blocks.
    assert server.cc.can_send(server.recovery.bytes_in_flight) >= server.config.mtu_payload
    assert server.send_streams[0].has_data
    assert server.conn_send_limit.used == server.conn_send_limit.limit

    def limits():
        return [dict(vars(server.conn_send_limit))] + [
            dict(vars(limit)) for limit in server.stream_send_limits.values()
        ]

    before, limits_before = pickle.dumps(server), limits()
    assert not server.wants_to_send(now)
    assert not server.wants_to_send(now)
    assert limits() == limits_before
    assert pickle.dumps(server) == before
