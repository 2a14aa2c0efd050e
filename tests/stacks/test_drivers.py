"""Server-driver send strategies, observed through real experiments.

These are white-box checks on the driver layer: timestamp monotonicity, GSO
grouping, pacing-mode invariants — run on small end-to-end experiments so the
drivers see realistic ACK clocking.
"""

import pytest

from repro.framework.config import ExperimentConfig
from repro.framework.experiment import Experiment
from repro.framework.scenarios import SF_PATCH, UNPACED
from repro.units import kib, us

SMALL = kib(300)


def build(**kwargs):
    kwargs.setdefault("file_size", SMALL)
    kwargs.setdefault("repetitions", 1)
    return Experiment(ExperimentConfig(**kwargs), seed=13)


class TestTxTimeDriver:
    def test_txtimes_monotonic_nondecreasing(self):
        e = build(stack="quiche", qdisc="fq", params=SF_PATCH)
        e.run()
        log = e.flows[0].server.expected_send_log
        times = [t for _, t in log]
        assert times == sorted(times)

    def test_txtime_lookahead_bounded(self):
        e = build(stack="quiche", qdisc="fq", params=SF_PATCH)
        result = e.run()
        lookahead = e.flows[0].profile.txtime_lookahead_ns
        # Expected send times never run further ahead of the wire than the
        # lookahead plus one scheduling slop.
        actual_by_pn = {r.packet_number: r.time_ns for r in result.server_records}
        for pn, expected in e.flows[0].server.expected_send_log:
            actual = actual_by_pn.get(pn)
            if actual is not None:
                assert expected - actual < lookahead + us(500)

    def test_every_logged_packet_reached_the_wire(self):
        e = build(stack="quiche", qdisc="fq", params=SF_PATCH)
        result = e.run()
        wire_pns = {r.packet_number for r in result.server_records}
        logged = {pn for pn, _ in e.flows[0].server.expected_send_log}
        missing = logged - wire_pns
        # Only bottleneck-dropped packets may be missing... but the sniffer
        # sits before the bottleneck, so everything logged must appear.
        assert not missing

    def test_etf_timestamps_respect_min_offset(self):
        e = build(stack="quiche", qdisc="etf", params=SF_PATCH)
        e.run()
        assert e.flows[0].profile.txtime_min_offset_ns > 0
        assert e.flows[0].qdisc.stats.dropped_late == 0


class TestGsoDriver:
    def test_buffers_respect_segment_cap(self):
        e = build(
            stack="quiche", qdisc="fq", gso="on", gso_segments=4, params=SF_PATCH
        )
        e.run()
        assert e.flows[0].segmenter.buffers_split > 0
        # Reconstruct group sizes from gso ids on the wire.
        sizes = {}
        for r in e.sniffer.columns:
            if r.gso_id is not None:
                sizes[r.gso_id] = sizes.get(r.gso_id, 0) + 1
        assert sizes
        assert max(sizes.values()) <= 4

    def test_paced_gso_marks_buffers(self):
        e = build(stack="quiche", qdisc="fq", gso="paced", params=SF_PATCH)
        e.run()
        assert e.flows[0].segmenter.paced_buffers > 0
        assert e.flows[0].segmenter.paced_buffers <= e.flows[0].segmenter.buffers_split


class TestAppPacedDrivers:
    @pytest.mark.parametrize("stack", ["picoquic", "ngtcp2"])
    def test_one_datagram_per_sendmsg(self, stack):
        e = build(stack=stack)
        e.run()
        # App-paced drivers never batch via sendmmsg/GSO.
        assert e.flows[0].server_sock.gso_sends == 0
        assert e.flows[0].server.conn.packets_sent == e.flows[0].server_sock.datagrams_sent

    def test_pacer_deadline_drives_wakeups(self):
        e = build(stack="ngtcp2")
        e.run()
        # The driver woke many times (pacing timers), far more than packets
        # could be coalesced into a handful of bursts.
        assert e.flows[0].server.wakeups > 100


class TestPacingOverride:
    def test_none_override_disables_pacer(self):
        e = build(stack="picoquic", params=UNPACED)
        from repro.pacing import NullPacer

        assert isinstance(e.flows[0].server.pacer, NullPacer)
        result = e.run()
        assert result.completed
