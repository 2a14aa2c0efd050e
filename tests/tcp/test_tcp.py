"""TCP comparator: segments, sender/receiver over a lossless and lossy wire."""

import random

from repro.kernel.socket import UdpSocket
from repro.kernel.qdisc.netem import NetemQdisc
from repro.net.impairments import IidLossStage, iid_loss
from repro.tcp.receiver import TcpReceiver
from repro.tcp.segment import TCP_MSS, TcpSegment
from repro.tcp.sender import TcpSender
from repro.units import kib, ms


class TestSegment:
    def test_wire_payload_includes_framing(self):
        seg = TcpSegment(seq=0, length=TCP_MSS, ack_no=0)
        assert seg.wire_payload > TCP_MSS

    def test_is_data(self):
        assert TcpSegment(0, 100, 0).is_data
        assert TcpSegment(100, 0, 0, fin=True).is_data
        assert not TcpSegment(0, 0, 500).is_data


def build_pair(sim, file_size, loss_rate=0.0, seed=3):
    """Sender and receiver joined by two 20 ms delay pipes, the forward one
    behind an i.i.d. loss stage when ``loss_rate`` is set."""
    rsock = UdpSocket(sim, "client", 1)
    ssock = UdpSocket(sim, "server", 2)
    fwd = NetemQdisc(sim, "fwd", sink=rsock, delay_ns=ms(20))
    if loss_rate:
        # One draw per segment, in front of the delay line.
        fwd = IidLossStage(sim, iid_loss(loss_rate), fwd, random.Random(seed))
    rev = NetemQdisc(sim, "rev", sink=ssock, delay_ns=ms(20))
    ssock.egress = fwd
    rsock.egress = rev
    ssock.connect("client", 1)
    rsock.connect("server", 2)
    sender = TcpSender(sim, ssock, file_size)
    receiver = TcpReceiver(sim, rsock, file_size)
    return sender, receiver


def test_small_transfer_completes(sim):
    sender, receiver = build_pair(sim, kib(64))
    sender.start()
    sim.run(until=ms(5000))
    assert receiver.done
    assert sender.complete
    assert receiver.rcv_nxt == kib(64)


def test_delivery_takes_at_least_one_way_delay(sim):
    sender, receiver = build_pair(sim, kib(8))
    sender.start()
    sim.run(until=ms(5000))
    assert receiver.completed_at >= ms(20)


def test_ack_clocking_grows_window(sim):
    sender, receiver = build_pair(sim, kib(512))
    sender.start()
    start_cwnd = sender.cc.cwnd
    sim.run(until=ms(500))
    assert sender.cc.cwnd > start_cwnd


def test_transfer_survives_random_loss(sim):
    sender, receiver = build_pair(sim, kib(128), loss_rate=0.02)
    sender.start()
    sim.run(until=ms(60_000))
    assert receiver.done
    assert sender.retransmissions > 0 or sender.cc.congestion_events > 0


def test_fast_retransmit_on_dup_acks(sim):
    # Heavier loss makes dup-ack recovery near certain within the window.
    sender, receiver = build_pair(sim, kib(256), loss_rate=0.05, seed=11)
    sender.start()
    sim.run(until=ms(120_000))
    assert receiver.done
    assert sender.retransmissions > 0


def test_delayed_ack_policy(sim):
    sender, receiver = build_pair(sim, kib(64))
    sender.start()
    sim.run(until=ms(5000))
    # Roughly one ACK per two segments (plus delayed-ack stragglers).
    segments = -(-kib(64) // TCP_MSS)
    assert receiver.acks_sent <= segments + 5
    assert receiver.acks_sent >= segments // 2 - 2


def test_receiver_counts_duplicate_bytes(sim):
    sender, receiver = build_pair(sim, kib(128), loss_rate=0.03, seed=5)
    sender.start()
    sim.run(until=ms(60_000))
    assert receiver.done
    assert receiver.bytes_received_total >= kib(128)
