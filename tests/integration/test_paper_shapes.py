"""Fast, small-scale checks that the paper's qualitative findings hold.

The benchmarks regenerate the full tables/figures; these tests pin the load-
bearing *orderings* at reduced scale so regressions surface in `pytest tests/`.
"""

from bisect import bisect_left

import pytest

from repro.framework.config import ExperimentConfig
from repro.framework.experiment import Experiment
from repro.metrics import (
    fraction_of_packets_in_trains_leq,
    inter_packet_gaps,
    fraction_leq,
    pacing_precision_ns,
    packets_by_train_length,
)
from repro.units import mib, us

SCALE = mib(4)

_cache = {}


def result(stack, **kwargs):
    key = (stack, tuple(sorted(kwargs.items())))
    if key not in _cache:
        kwargs.setdefault("file_size", SCALE)
        cfg = ExperimentConfig(stack=stack, repetitions=1, **kwargs)
        _cache[key] = Experiment(cfg, seed=21).run()
    return _cache[key]


class TestBaseline:
    """Section 4.1 / Figures 2-3 / Table 1."""

    def test_all_stacks_complete(self):
        for stack in ("quiche", "picoquic", "ngtcp2", "tcp"):
            assert result(stack).completed

    def test_tcp_has_best_goodput_and_fewest_drops(self):
        tcp = result("tcp")
        for stack in ("quiche", "picoquic", "ngtcp2"):
            r = result(stack)
            assert tcp.goodput_mbps >= r.goodput_mbps - 0.5
            assert tcp.dropped <= r.dropped

    def test_ngtcp2_goodput_is_far_lowest(self):
        ngtcp2 = result("ngtcp2")
        assert ngtcp2.goodput_mbps < 20
        assert result("quiche").goodput_mbps > 25
        assert result("picoquic").goodput_mbps > 25

    def test_ngtcp2_and_tcp_pace_almost_perfectly(self):
        for stack in ("ngtcp2", "tcp"):
            frac = fraction_of_packets_in_trains_leq(result(stack).server_records, 5)
            assert frac > 0.99, stack

    def test_picoquic_bursts_with_cubic(self):
        recs = result("picoquic").server_records
        frac5 = fraction_of_packets_in_trains_leq(recs, 5)
        assert frac5 < 0.85  # large trains exist
        dist = packets_by_train_length(recs)
        total = sum(dist.values())
        big = sum(v for k, v in dist.items() if 14 <= k <= 19) / total
        assert big > 0.10  # bucket-sized bursts carry real mass

    def test_quiche_intermediate_burstiness(self):
        frac = fraction_of_packets_in_trains_leq(result("quiche").server_records, 5)
        assert 0.80 < frac <= 1.0

    def test_roughly_half_of_packets_back_to_back(self):
        for stack in ("quiche", "tcp"):
            gaps = inter_packet_gaps(result(stack).server_records)
            assert 0.3 < fraction_leq(gaps, us(15)) < 0.8, stack


class TestCcaSweep:
    """Section 4.1 / Figure 4."""

    def test_picoquic_bbr_nearly_perfect_pacing(self):
        bbr = result("picoquic", cca="bbr")
        cubic = result("picoquic", cca="cubic")

        def burst_mass(r):
            # Mass in trains > 5 packets during steady state (the paper's
            # claim concerns post-startup behaviour; BBR's startup itself is
            # a high-gain burst phase in every implementation).
            records = r.server_records
            times = records.time_ns
            cutoff = times[0] + int(0.75 * (times[-1] - times[0]))
            tail = records[bisect_left(times, cutoff):]
            dist = packets_by_train_length(tail)
            total = sum(dist.values())
            return sum(v for k, v in dist.items() if k > 5) / total

        # BBR never releases the bucket-sized bursts loss-based CCAs show.
        assert burst_mass(bbr) < burst_mass(cubic) / 3
        # And it avoids the bottleneck losses entirely (model-based control).
        assert bbr.dropped <= cubic.dropped

    def test_picoquic_newreno_also_bursty(self):
        frac = fraction_of_packets_in_trains_leq(
            result("picoquic", cca="newreno").server_records, 5
        )
        assert frac < 0.85

    def test_ngtcp2_bbr_increases_loss(self):
        baseline = result("ngtcp2", cca="cubic", file_size=mib(8))
        bbr = result("ngtcp2", cca="bbr", file_size=mib(8))
        assert bbr.dropped > baseline.dropped
        assert bbr.dropped > 50  # an order of magnitude beyond its baseline


class TestFqAndRollback:
    """Section 4.2 / Figure 5."""

    def test_fq_makes_long_trains_rare(self):
        fq = result("quiche", qdisc="fq", spurious_rollback=False)
        baseline = result("quiche", spurious_rollback=False)
        f_fq = fraction_of_packets_in_trains_leq(fq.server_records, 5)
        f_base = fraction_of_packets_in_trains_leq(baseline.server_records, 5)
        assert f_fq >= f_base
        assert f_fq > 0.95

    def test_rollback_increases_loss_under_fq(self):
        stock = result("quiche", qdisc="fq", spurious_rollback=True, file_size=mib(16))
        patched = result("quiche", qdisc="fq", spurious_rollback=False, file_size=mib(16))
        assert stock.server_stats["rollbacks"] > 0
        assert patched.server_stats["rollbacks"] == 0
        assert stock.dropped > patched.dropped


class TestGso:
    """Section 4.3 / Figure 6 / Table 2."""

    def test_gso_is_bursty(self):
        on = result("quiche", qdisc="fq", gso="on", spurious_rollback=False)
        off = result("quiche", qdisc="fq", gso="off", spurious_rollback=False)
        f_on = fraction_of_packets_in_trains_leq(on.server_records, 5)
        f_off = fraction_of_packets_in_trains_leq(off.server_records, 5)
        assert f_on < 0.3 < f_off

    def test_paced_gso_restores_pacing(self):
        paced = result("quiche", qdisc="fq", gso="paced", spurious_rollback=False)
        dist = packets_by_train_length(paced.server_records)
        total = sum(dist.values())
        assert dist.get(1, 0) / total > 0.8  # paper: >80% outside any train

    def test_bursty_gso_avoids_slow_start_overshoot_loss(self):
        on = result("quiche", qdisc="fq", gso="on", spurious_rollback=False)
        off = result("quiche", qdisc="fq", gso="off", spurious_rollback=False)
        paced = result("quiche", qdisc="fq", gso="paced", spurious_rollback=False)
        # Paper Table 2: enabled ~6 drops; disabled/paced ~160.
        assert on.dropped < off.dropped
        assert on.dropped < paced.dropped


class TestPrecision:
    """Section 4.4."""

    @pytest.fixture(scope="class")
    def precisions(self):
        out = {}
        for qdisc in ("none", "fq", "etf", "etf-offload"):
            r = result("quiche", qdisc=qdisc, spurious_rollback=False)
            out[qdisc] = pacing_precision_ns(r.expected_send_log, r.server_records)
        return out

    def test_fq_is_most_precise(self, precisions):
        assert precisions["fq"] < precisions["etf"]
        assert precisions["fq"] < precisions["none"]

    def test_no_qdisc_is_least_precise(self, precisions):
        assert precisions["none"] > precisions["etf"]
        assert precisions["none"] > precisions["etf-offload"]

    def test_launchtime_adds_no_meaningful_precision(self, precisions):
        ratio = precisions["etf-offload"] / precisions["etf"]
        assert 0.5 < ratio < 1.5
