"""What travels inside the simulator is what would travel on a wire.

Packets cross the simulated network as objects, and the sender records their
size, ack-elicitation and STREAM payload *lengths* while assembling them
instead of deriving them from encoded bytes. These tests pin that bookkeeping
to the real encoding: over whole runs every built packet must serialize to
exactly the size it claims and parse back to itself, and an exchange fed
with packets decoded from their encoded bytes must end where the same
exchange fed with the packet objects ends.
"""

import pytest

from repro.framework.config import ExperimentConfig, NetworkConfig
from repro.framework.experiment import run_experiment
from repro.net.impairments import burst_loss, iid_loss, reordering
from repro.quic.connection import Connection, ConnectionConfig
from repro.quic.packet import PacketType, QuicPacket
from repro.quic.stream import DataSource
from repro.units import kib, ms

LOSSY = NetworkConfig(
    forward_impairments=(burst_loss(), reordering()),
    reverse_impairments=(iid_loss(0.01),),
)


@pytest.mark.parametrize(
    "config",
    [
        ExperimentConfig(
            stack="quiche", cca="cubic", qdisc="fq", file_size=kib(512), seed=1, network=LOSSY
        ),
        ExperimentConfig(stack="picoquic", cca="bbr", file_size=kib(512), seed=1),
    ],
    ids=["quiche-cubic-fq-lossy", "picoquic-bbr"],
)
def test_every_built_packet_encodes_to_what_it_claims(config, monkeypatch):
    built_packets = []
    build_packet = Connection.build_packet

    def recording(self, now):
        built = build_packet(self, now)
        if built is not None:
            built_packets.append(built)
        return built

    monkeypatch.setattr(Connection, "build_packet", recording)
    result = run_experiment(config, seed=1)
    assert result.completed
    # Both endpoints' packets: data, ACKs, handshake, retransmissions.
    assert len(built_packets) > 400
    for built in built_packets:
        wire = built.packet.encode()
        assert len(wire) == built.size == built.packet.encoded_len
        decoded = QuicPacket.decode(wire)
        assert decoded == built.packet
        assert decoded.packet_number == built.packet.packet_number
        assert decoded.ack_eliciting == built.ack_eliciting == built.packet.ack_eliciting
        assert decoded.encoded_len == built.size
    initial = built_packets[0]
    assert initial.packet.packet_type is PacketType.INITIAL
    assert initial.size >= ConnectionConfig().initial_pad_to  # padding counted
    assert any(len(b.retx) > 1 for b in built_packets)  # multi-frame packets too


def _exchange(as_bytes: bool):
    """Handshake plus a 128 KiB download with every ninth server data packet
    dropped, one millisecond per round; returns both endpoints."""
    config = dict(peer_max_data=kib(48), peer_max_stream_data=kib(32))
    server = Connection("server", config=ConnectionConfig(**config))
    client = Connection(
        "client",
        config=ConnectionConfig(recv_conn_window=kib(48), recv_stream_window=kib(32), **config),
    )
    client.start_handshake()
    now = 0
    sent_by_server = 0
    for _ in range(5000):
        now += ms(1)
        for src, dst in ((client, server), (server, client)):
            src.on_timeout(now)
            for _ in range(8):
                if not src.wants_to_send(now):
                    break
                built = src.build_packet(now)
                if built is None:
                    break
                src.on_packet_sent(built, now)
                if src is server and built.ack_eliciting:
                    sent_by_server += 1
                    if sent_by_server % 9 == 0:
                        continue  # lost on the way
                packet = QuicPacket.decode(built.packet.encode()) if as_bytes else built.packet
                dst.on_datagram(packet, now + ms(1))
        if server.established and not server.send_streams:
            server.open_send_stream(0, DataSource(kib(128)))
        if client.transfer_complete(0) and not server.recovery.sent:
            break
    return server, client


def _state(conn: Connection):
    return {
        "next_pn": conn.next_pn,
        "packets": (conn.packets_sent, conn.packets_received, conn.bytes_sent),
        "acks_sent": conn.acks_sent,
        "bytes_in_flight": conn.recovery.bytes_in_flight,
        "lost": conn.recovery.lost_packets_total,
        "cwnd": conn.cc.cwnd,
        "srtt": conn.rtt.smoothed_rtt,
        "send_offsets": {
            sid: (s.next_offset, s.fin_sent, s.fin_acked, s.retx_bytes_total, list(s.acked))
            for sid, s in conn.send_streams.items()
        },
        "recv_offsets": {
            sid: (s.delivered, s.highest_received, s.bytes_received_total, s.final_size)
            for sid, s in conn.recv_streams.items()
        },
        "conn_send_limit": vars(conn.conn_send_limit),
        "stream_send_limits": {k: vars(v) for k, v in conn.stream_send_limits.items()},
        "conn_recv_limit": vars(conn.conn_recv_limit),
        "stream_recv_limits": {k: vars(v) for k, v in conn.stream_recv_limits.items()},
    }


def test_exchange_by_object_and_by_bytes_end_in_the_same_state():
    by_object = _exchange(as_bytes=False)
    by_bytes = _exchange(as_bytes=True)
    server, client = by_object
    assert client.transfer_complete(0)
    assert server.recovery.lost_packets_total > 0  # the slow path ran too
    assert server.stream_bytes_retx > 0
    assert client.stream_recv_limits[0].advertised > kib(32)  # window updates flowed
    for a, b in zip(by_object, by_bytes):
        assert _state(a) == _state(b)
