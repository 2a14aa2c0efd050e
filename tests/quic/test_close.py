"""Graceful connection close."""

from repro.quic.frames import ConnectionCloseFrame
from repro.quic.stream import DataSource
from repro.units import kib, ms
from tests.quic.test_connection import complete_handshake, make_pair, over_the_wire


def test_close_sends_one_close_frame_then_stops():
    server, client = make_pair()
    complete_handshake(server, client)
    client.close(0, b"bye")
    assert client.wants_to_send(ms(1))
    built = client.build_packet(ms(1))
    assert any(isinstance(f, ConnectionCloseFrame) for f in built.packet.frames)
    assert not built.ack_eliciting
    client.on_packet_sent(built, ms(1))
    assert client.close_sent
    assert not client.wants_to_send(ms(2))
    assert client.build_packet(ms(2)) is None


def test_close_is_idempotent():
    _, client = make_pair()
    client.close()
    client.close()
    built = client.build_packet(0)
    client.on_packet_sent(built, 0)
    assert client.build_packet(0) is None


def test_peer_stops_on_close():
    server, client = make_pair()
    complete_handshake(server, client)
    server.open_send_stream(0, DataSource(kib(100)))
    assert server.wants_to_send(ms(1))
    client.close(0, b"enough")
    built = client.build_packet(ms(1))
    client.on_packet_sent(built, ms(1))
    server.on_datagram(over_the_wire(built), ms(2))
    assert server.closed
    assert not server.wants_to_send(ms(2))


def test_client_driver_closes_after_download():
    from repro.framework.config import ExperimentConfig
    from repro.framework.experiment import Experiment

    e = Experiment(
        ExperimentConfig(stack="quiche", file_size=kib(200), repetitions=1), seed=3
    )
    result = e.run()
    assert result.completed
    assert e.flows[0].client.conn.close_sent
    # The server received the close and went quiet.
    assert e.flows[0].server.conn.closed
