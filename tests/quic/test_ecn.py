"""ECN: ACK_ECN frames, CE accounting, congestion response without loss."""

import pytest

from repro.cc.cubic import Cubic, CubicParams
from repro.cc.newreno import NewReno
from repro.cc.bbr import Bbr
from repro.quic.connection import Connection, ConnectionConfig
from repro.quic.frames import AckFrame, parse_frames
from repro.quic.stream import DataSource
from repro.units import kib, mib, ms
from tests.cc.helpers import drive_acks
from tests.quic.test_connection import complete_handshake, make_pair, over_the_wire


class TestAckEcnFrame:
    def test_roundtrip_with_counts(self):
        f = AckFrame(10, 800, ((0, 10),), ecn_counts=(100, 0, 7))
        parsed = parse_frames(f.encode())[0]
        assert parsed.ecn_counts == (100, 0, 7)
        assert parsed.ranges == ((0, 10),)

    def test_plain_ack_has_no_counts(self):
        f = AckFrame(10, 0, ((0, 10),))
        assert parse_frames(f.encode())[0].ecn_counts is None

    def test_wire_types_differ(self):
        plain = AckFrame(0, 0, ((0, 0),)).encode()
        ecn = AckFrame(0, 0, ((0, 0),), ecn_counts=(1, 0, 0)).encode()
        assert plain[0] == 0x02
        assert ecn[0] == 0x03


class TestConnectionEcn:
    def make_ecn_pair(self):
        server = Connection("server", config=ConnectionConfig(ecn=True))
        client = Connection("client", config=ConnectionConfig(ecn=True))
        return server, client

    def test_receiver_counts_marks(self):
        server, client = self.make_ecn_pair()
        complete_handshake(server, client)
        server.open_send_stream(0, DataSource(kib(10)))
        built = server.build_packet(ms(1))
        server.on_packet_sent(built, ms(1))
        client.on_datagram(over_the_wire(built), ms(2), ecn=2)
        built2 = server.build_packet(ms(1))
        server.on_packet_sent(built2, ms(1))
        client.on_datagram(over_the_wire(built2), ms(2), ecn=3)
        assert client.ecn_received[0] >= 1
        assert client.ecn_received[2] == 1

    def test_acks_echo_counts_and_sender_reacts(self):
        server, client = self.make_ecn_pair()
        complete_handshake(server, client)
        server.open_send_stream(0, DataSource(kib(20)))
        now = ms(1)
        built = []
        while server.wants_to_send(now):
            b = server.build_packet(now)
            if b is None:
                break
            server.on_packet_sent(b, now)
            built.append(b)
        cwnd_before = server.cc.cwnd
        for b in built:
            client.on_datagram(over_the_wire(b), now + ms(20), ecn=3)  # all CE-marked
        # Client acks carry the CE count; the server reduces its window.
        while client.wants_to_send(now + ms(40)):
            ack = client.build_packet(now + ms(40))
            if ack is None:
                break
            client.on_packet_sent(ack, now + ms(40))
            server.on_datagram(over_the_wire(ack), now + ms(40))
        assert server.ecn_ce_events >= 1
        assert server.cc.cwnd < cwnd_before

    def test_ecn_disabled_ignores_marks(self):
        server, client = make_pair()  # ecn off
        complete_handshake(server, client)
        server.open_send_stream(0, DataSource(kib(5)))
        b = server.build_packet(ms(1))
        server.on_packet_sent(b, ms(1))
        client.on_datagram(over_the_wire(b), ms(2), ecn=3)
        ack = client.build_packet(ms(30))
        assert ack is not None
        ack_frames = [f for f in ack.packet.frames if isinstance(f, AckFrame)]
        assert ack_frames and ack_frames[0].ecn_counts is None


class TestCcEcnResponse:
    def test_cubic_reduces_once_per_epoch(self):
        cc = Cubic(params=CubicParams(hystart=False), mtu=1252)
        drive_acks(cc, 50)
        before = cc.cwnd
        cc.on_ecn_ce(ms(1000), ms(999))
        first = cc.cwnd
        assert first < before
        cc.on_ecn_ce(ms(1001), ms(999))  # same epoch: no further cut
        assert cc.cwnd == first
        cc.on_ecn_ce(ms(2000), ms(1999))  # new epoch
        assert cc.cwnd < first

    def test_newreno_halves(self):
        cc = NewReno(hystart=False, mtu=1252)
        drive_acks(cc, 50)
        before = cc.cwnd
        cc.on_ecn_ce(ms(1000), ms(999))
        assert cc.cwnd == before // 2

    def test_bbr_ignores_ce(self):
        cc = Bbr(mtu=1252)
        before = cc.cwnd
        cc.on_ecn_ce(ms(100), ms(99))
        assert cc.cwnd == before


class TestEndToEndEcn:
    def test_ecn_removes_bottleneck_drops(self):
        from repro.framework.config import ExperimentConfig
        from repro.framework.experiment import Experiment

        base = dict(
            stack="quiche", qdisc="fq", spurious_rollback=False,
            file_size=mib(4), repetitions=1,
        )
        plain = Experiment(ExperimentConfig(**base), seed=3)
        r_plain = plain.run()
        ecn = Experiment(ExperimentConfig(ecn=True, **base), seed=3)
        r_ecn = ecn.run()
        assert r_plain.completed and r_ecn.completed
        assert ecn.bottleneck.ce_marked > 0
        assert r_ecn.dropped < r_plain.dropped
        # Goodput stays comparable.
        assert r_ecn.goodput_mbps > 0.9 * r_plain.goodput_mbps
