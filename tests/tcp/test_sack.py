"""SACK-based TCP recovery specifics."""

import random

import pytest

from repro.kernel.qdisc.netem import NetemQdisc
from repro.kernel.socket import UdpSocket
from repro.net.impairments import IidLossStage, iid_loss
from repro.quic.ranges import RangeSet
from repro.tcp.receiver import TcpReceiver
from repro.tcp.segment import TCP_MSS, TcpSegment
from repro.tcp.sender import LOSS_SACK_BYTES, TcpSender
from repro.units import kib, ms


def build_pair(sim, file_size, loss_rate=0.0, seed=3):
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
    return TcpSender(sim, ssock, file_size), TcpReceiver(sim, rsock, file_size)


class TestScoreboard:
    def _sender(self, sim):
        sender, _ = build_pair(sim, kib(512))
        return sender

    def test_sack_blocks_populate_scoreboard(self, sim):
        sender = self._sender(sim)
        sender.snd_nxt = 20 * TCP_MSS
        ack = TcpSegment(0, 0, ack_no=0, sack_blocks=((5 * TCP_MSS, 8 * TCP_MSS),))
        sender._on_ack(ack)
        assert sender.highest_sacked == 8 * TCP_MSS
        assert sender.sacked.covers(5 * TCP_MSS, 8 * TCP_MSS)

    def test_hole_lost_after_three_mss_sacked_above(self, sim):
        sender = self._sender(sim)
        sender.snd_nxt = 20 * TCP_MSS
        # SACK exactly LOSS_SACK_BYTES above the hole at [0, MSS).
        sender._on_ack(
            TcpSegment(0, 0, 0, sack_blocks=((TCP_MSS, TCP_MSS + LOSS_SACK_BYTES),))
        )
        lost = sender._lost_ranges()
        assert lost and lost[0][0] == 0
        assert sender.in_recovery

    def test_small_sack_does_not_trigger_recovery(self, sim):
        sender = self._sender(sim)
        sender.snd_nxt = 20 * TCP_MSS
        sender._on_ack(TcpSegment(0, 0, 0, sack_blocks=((TCP_MSS, 2 * TCP_MSS),)))
        assert not sender.in_recovery

    def test_pipe_excludes_sacked_and_lost(self, sim):
        sender = self._sender(sim)
        sender.snd_nxt = 10 * TCP_MSS
        assert sender._pipe() == 10 * TCP_MSS
        sender._on_ack(
            TcpSegment(0, 0, 0, sack_blocks=((TCP_MSS, TCP_MSS + LOSS_SACK_BYTES),))
        )
        # 3 MSS sacked + 1 MSS lost leave 6 MSS in the pipe.
        assert sender._pipe() == 6 * TCP_MSS

    def test_retransmitted_hole_counts_in_pipe(self, sim):
        sender = self._sender(sim)
        sender.snd_nxt = 10 * TCP_MSS
        sender._on_ack(
            TcpSegment(0, 0, 0, sack_blocks=((TCP_MSS, TCP_MSS + LOSS_SACK_BYTES),))
        )
        before = sender._pipe()
        sender._send_window()  # retransmits the hole
        assert sender.retransmissions >= 1
        assert sender._pipe() >= before

    def test_recovery_ends_at_recover_point(self, sim):
        sender = self._sender(sim)
        sender.snd_nxt = 10 * TCP_MSS
        sender._on_ack(
            TcpSegment(0, 0, 0, sack_blocks=((TCP_MSS, TCP_MSS + LOSS_SACK_BYTES),))
        )
        assert sender.in_recovery
        sender._on_ack(TcpSegment(0, 0, ack_no=10 * TCP_MSS))
        assert not sender.in_recovery


class TestPipeAgainstPerByteReference:
    """Seeded random scoreboards: the range arithmetic of ``_pipe``,
    ``_lost_ranges`` and ``_next_hole_to_retransmit`` against one flag per
    byte, with the scoreboard as the ACKs left it and again after everything
    below ``snd_una`` has been forgotten."""

    UNIT = TCP_MSS // 6  # scoreboard edges fall on a coarse grid
    SPAN = 60  # units of sequence space

    def _scoreboard(self, sim, rng):
        sender, _ = build_pair(sim, kib(512))
        unit, span = self.UNIT, self.SPAN
        sender.snd_una = rng.randrange(0, span // 2) * unit
        # Go-back-N may leave snd_nxt below what has been SACKed.
        sender.snd_nxt = sender.snd_una + rng.randrange(0, span // 2) * unit
        for _ in range(rng.randrange(0, 6)):  # below, straddling, above snd_una
            lo = rng.randrange(0, span) * unit
            hi = lo + rng.randrange(1, 12) * unit
            sender.sacked.add(lo, hi)
            sender.highest_sacked = max(sender.highest_sacked, hi)
        for _ in range(rng.randrange(0, 4)):
            lo = rng.randrange(0, span) * unit
            sender.retx_sent.add(lo, lo + rng.randrange(1, 7) * unit)
        return sender

    @staticmethod
    def _runs(flags):
        """Maximal runs of set flags as half-open ranges."""
        out, start = [], None
        for i, flag in enumerate(flags + [False]):
            if flag and start is None:
                start = i
            elif not flag and start is not None:
                out.append((start, i))
                start = None
        return out

    def _reference(self, sender):
        top = (self.SPAN + 12) * self.UNIT
        sacked = [False] * top
        retx = [False] * top
        for flags, ranges in ((sacked, sender.sacked), (retx, sender.retx_sent)):
            for lo, hi in ranges:
                flags[lo:hi] = [True] * (hi - lo)
        una, nxt, frontier = (
            sender.snd_una, sender.snd_nxt, sender.highest_sacked - LOSS_SACK_BYTES,
        )
        lost = [una <= b < frontier and not sacked[b] for b in range(top)]
        unrepaired = [lost[b] and not retx[b] for b in range(top)]
        pipe = 0
        if nxt > una:
            pipe = (nxt - una) - sum(sacked[una:nxt]) - sum(unrepaired)
        # A repaired stretch splits a hole; a hole never spans a SACKed byte.
        holes = self._runs(unrepaired)
        return max(0, pipe), self._runs(lost), holes[0] if holes else None

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_reference_before_and_after_pruning(self, sim, seed):
        sender = self._scoreboard(sim, random.Random(seed))
        expected = self._reference(sender)

        def actual():
            return (
                sender._pipe(),
                sender._lost_ranges(),
                sender._next_hole_to_retransmit(),
            )

        assert actual() == expected
        sender.sacked.discard_below(sender.snd_una)
        sender.retx_sent.discard_below(sender.snd_una)
        assert all(lo >= sender.snd_una for lo, _hi in sender.sacked)
        assert all(lo >= sender.snd_una for lo, _hi in sender.retx_sent)
        assert actual() == expected


class TestReceiverSack:
    def test_receiver_reports_blocks_above_cumulative(self, sim):
        _, receiver = build_pair(sim, kib(512))
        receiver.received = RangeSet()
        receiver.received.add(0, 1000)
        receiver.received.add(3000, 4000)
        receiver.received.add(6000, 7000)
        receiver.received.add(9000, 10000)
        receiver.received.add(12000, 13000)
        receiver.rcv_nxt = 1000
        blocks = receiver._sack_blocks()
        assert len(blocks) == 3
        assert blocks[0] == (12000, 13000)  # highest first
        assert (3000, 4000) not in blocks  # truncated to three
        assert all(hi > receiver.rcv_nxt for _lo, hi in blocks)

    def test_no_blocks_when_in_order(self, sim):
        _, receiver = build_pair(sim, kib(512))
        receiver.received.add(0, 5000)
        receiver.rcv_nxt = 5000
        assert receiver._sack_blocks() == ()


class TestEndToEnd:
    def test_burst_loss_recovers_within_few_rtts(self, sim):
        sender, receiver = build_pair(sim, kib(256), loss_rate=0.0)
        # Manually drop a contiguous burst by intercepting the forward path.
        dropped = []
        fwd = sender.socket.egress
        orig = fwd.enqueue

        def lossy(dgram):
            seg = dgram.payload
            if seg.is_data and 20 * TCP_MSS <= seg.seq < 30 * TCP_MSS and seg.seq not in dropped:
                dropped.append(seg.seq)
                return
            orig(dgram)

        fwd.enqueue = lossy
        sender.start()
        sim.run(until=ms(20_000))
        assert receiver.done
        assert len(dropped) >= 5
        # SACK recovery repairs a 10-segment burst quickly: well under the
        # ~10 RTTs NewReno would need (1 hole per RTT) plus slow-start time.
        assert receiver.completed_at < ms(3_000)
        assert sender.rto_events == 0

    def test_heavy_random_loss_still_completes(self, sim):
        sender, receiver = build_pair(sim, kib(128), loss_rate=0.08, seed=13)
        sender.start()
        sim.run(until=ms(120_000))
        assert receiver.done
        assert sender.retransmissions > 0
