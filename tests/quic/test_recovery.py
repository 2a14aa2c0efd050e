"""Loss recovery: ACK processing, thresholds, PTO, rate samples, spurious loss."""

from repro.quic.frames import AckFrame
from repro.quic.recovery import LossRecovery, SentPacket
from repro.quic.rtt import RttEstimator
from repro.units import ms


def mk(pn, t, size=1200, eliciting=True):
    return SentPacket(pn=pn, time_sent=t, size=size, ack_eliciting=eliciting, in_flight=eliciting)


def ack_frame(*ranges, delay_us=0):
    return AckFrame(largest=ranges[0][1], ack_delay_us=delay_us, ranges=tuple(ranges))


def fresh():
    return LossRecovery(RttEstimator())


def test_bytes_in_flight_accounting():
    rec = fresh()
    for pn in range(3):
        rec.on_packet_sent(mk(pn, pn * 100), pn * 100)
    assert rec.bytes_in_flight == 3600
    result = rec.on_ack_frame(ack_frame((0, 1)), ms(40))
    assert rec.bytes_in_flight == 1200
    assert [sp.pn for sp in result.newly_acked] == [0, 1]


def test_ack_only_packets_not_in_flight():
    rec = fresh()
    rec.on_packet_sent(mk(0, 0, eliciting=False), 0)
    assert rec.bytes_in_flight == 0


def test_rtt_sample_only_for_largest_newly_acked():
    rec = fresh()
    rec.on_packet_sent(mk(0, 0), 0)
    rec.on_packet_sent(mk(1, 100), 100)
    result = rec.on_ack_frame(ack_frame((0, 1)), ms(40))
    assert result.rtt_updated
    assert rec.rtt.latest_rtt == ms(40) - 100


def test_duplicate_ack_ignored():
    rec = fresh()
    rec.on_packet_sent(mk(0, 0), 0)
    rec.on_ack_frame(ack_frame((0, 0)), ms(40))
    result = rec.on_ack_frame(ack_frame((0, 0)), ms(41))
    assert result.newly_acked == []
    assert not result.rtt_updated


def test_packet_threshold_loss():
    rec = fresh()
    for pn in range(5):
        rec.on_packet_sent(mk(pn, pn), pn)
    result = rec.on_ack_frame(ack_frame((3, 4)), ms(40))
    # pns 0 and 1 are >= 3 behind largest acked (4): lost. pn 2 waits.
    assert [sp.pn for sp in result.lost] == [0, 1]
    assert rec.loss_time is not None
    assert rec.lost_packets_total == 2


def test_time_threshold_loss():
    rec = fresh()
    # pn 0 is slightly older than pn 1 but too recent for immediate loss:
    # a loss timer is armed instead, and firing it declares pn 0 lost.
    rec.on_packet_sent(mk(0, ms(140)), ms(140))
    rec.on_packet_sent(mk(1, ms(141)), ms(141))
    result = rec.on_ack_frame(ack_frame((1, 1)), ms(166))
    assert result.lost == []
    assert rec.loss_time is not None
    lost, pto = rec.on_loss_timeout(rec.loss_time)
    assert [sp.pn for sp in lost] == [0]
    assert not pto


def test_old_packet_lost_immediately_by_time_threshold():
    rec = fresh()
    rec.on_packet_sent(mk(0, 0), 0)
    rec.on_packet_sent(mk(1, ms(100)), ms(100))
    result = rec.on_ack_frame(ack_frame((1, 1)), ms(140))
    assert [sp.pn for sp in result.lost] == [0]


def test_spurious_loss_detected_on_late_ack():
    rec = fresh()
    for pn in range(5):
        rec.on_packet_sent(mk(pn, pn), pn)
    rec.on_ack_frame(ack_frame((3, 4)), ms(40))  # 0,1 declared lost
    result = rec.on_ack_frame(ack_frame((0, 4)), ms(41))
    assert set(result.spurious_pns) == {0, 1}
    # Not double counted.
    result2 = rec.on_ack_frame(ack_frame((0, 4)), ms(42))
    assert result2.spurious_pns == []


def test_pto_deadline_and_backoff():
    rec = fresh()
    rec.on_packet_sent(mk(0, 0), 0)
    first = rec.pto_deadline()
    assert first is not None
    lost, pto = rec.on_loss_timeout(first)
    assert pto and not lost
    assert rec.pto_count == 1
    assert rec.pto_deadline() > first  # exponential backoff


def test_pto_cleared_when_nothing_eliciting_in_flight():
    rec = fresh()
    rec.on_packet_sent(mk(0, 0), 0)
    rec.on_ack_frame(ack_frame((0, 0)), ms(40))
    assert rec.pto_deadline() is None
    assert rec.next_timeout() is None


def test_pto_count_resets_on_ack():
    rec = fresh()
    rec.on_packet_sent(mk(0, 0), 0)
    rec.on_loss_timeout(rec.pto_deadline())
    rec.on_packet_sent(mk(1, ms(900)), ms(900))
    rec.on_ack_frame(ack_frame((0, 1)), ms(940))
    assert rec.pto_count == 0


def test_rate_sample_produced():
    rec = fresh()
    rec.on_packet_sent(mk(0, 0, size=1000), 0)
    result = rec.on_ack_frame(ack_frame((0, 0)), ms(40))
    rs = result.rate_sample
    assert rs is not None
    assert rs.delivered_bytes == 1000
    # 1000 bytes over 40ms = 200 kbit/s.
    assert abs(rs.delivery_rate_bps - 200_000) < 1_000


def test_rate_sample_interval_uses_prior_ack():
    rec = fresh()
    rec.on_packet_sent(mk(0, 0, size=1000), 0)
    rec.on_ack_frame(ack_frame((0, 0)), ms(40))
    # Next packet sent right after the first ACK; interval should be ~1 RTT,
    # not the whole connection lifetime.
    rec.on_packet_sent(mk(1, ms(41), size=1000), ms(41))
    result = rec.on_ack_frame(ack_frame((0, 1)), ms(81))
    rs = result.rate_sample
    assert rs is not None
    assert rs.interval_ns <= ms(41)


def test_app_limited_flag_snapshot():
    rec = fresh()
    rec.app_limited = True
    rec.on_packet_sent(mk(0, 0), 0)
    rec.app_limited = False
    rec.on_packet_sent(mk(1, 10), 10)
    assert rec.sent[0].is_app_limited
    assert not rec.sent[1].is_app_limited


def test_lost_history_pruning():
    rec = fresh()
    for pn in range(5):
        rec.on_packet_sent(mk(pn, pn), pn)
    rec.on_ack_frame(ack_frame((3, 4)), ms(40))
    assert rec._lost_history
    # A very late ACK long after the horizon no longer counts as spurious.
    rec.on_packet_sent(mk(5, ms(30_000)), ms(30_000))
    result = rec.on_ack_frame(ack_frame((0, 5)), ms(30_040))
    assert result.spurious_pns == []


def test_oldest_unacked():
    rec = fresh()
    assert rec.oldest_unacked() is None
    rec.on_packet_sent(mk(3, 0), 0)
    rec.on_packet_sent(mk(4, 1), 1)
    assert rec.oldest_unacked().pn == 3


def test_newly_acked_is_ascending_under_a_reordered_multi_range_ack():
    """``sent`` keeps send order and the merge pass walks it once, so the
    newly acked packets come out ascending by packet number with no sort —
    the congestion controllers take ``newly_acked[-1]`` as the largest."""
    rec = fresh()
    for pn in range(10):
        rec.on_packet_sent(mk(pn, pn * 10), pn * 10)
    # Wire order is descending; 0, 1 and 4 fall to the packet threshold, 7 waits.
    first = rec.on_ack_frame(ack_frame((8, 9), (5, 6), (2, 3)), ms(40))
    assert [sp.pn for sp in first.newly_acked] == [2, 3, 5, 6, 8, 9]
    assert first.largest_newly_acked == 9
    assert [sp.pn for sp in first.lost] == [0, 1, 4]
    # The reordered stragglers arrive: 7 is newly acked, 4 and 0 were spurious.
    second = rec.on_ack_frame(ack_frame((2, 9), (0, 0)), ms(41))
    assert [sp.pn for sp in second.newly_acked] == [7]
    assert second.spurious_pns == [4, 0]
