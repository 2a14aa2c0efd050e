"""pfifo_fast, netem, FQ_CoDel, and the qdisc factory."""

import random

import pytest

from repro.errors import ConfigError
from repro.framework.config import QDISCS
from repro.kernel.qdisc import (
    EtfQdisc,
    FqCodel,
    FqQdisc,
    NetemQdisc,
    PfifoFast,
    make_qdisc,
)
from repro.units import mbit, ms, tx_time_ns, us
from tests.conftest import Collector, make_dgram


class TestPfifoFast:
    def test_pass_through_preserves_order(self, sim, collector):
        q = PfifoFast(sim, sink=collector)
        for i in range(5):
            q.enqueue(make_dgram(100, pn=i))
        sim.run()
        assert [d.packet_number for d in collector.dgrams] == list(range(5))
        assert collector.times == [0] * 5

    def test_ignores_txtime(self, sim, collector):
        q = PfifoFast(sim, sink=collector)
        q.enqueue(make_dgram(100, txtime=us(10_000)))
        sim.run()
        assert collector.times == [0]
        assert not q.honors_txtime

    def test_limit_drops(self, sim, collector):
        q = PfifoFast(sim, sink=collector, limit_packets=0)
        q.enqueue(make_dgram(100))
        assert q.stats.dropped == 1


class TestNetem:
    def test_fixed_delay(self, sim, collector):
        q = NetemQdisc(sim, sink=collector, delay_ns=ms(20))
        q.enqueue(make_dgram(100))
        sim.run()
        assert collector.times == [ms(20)]

    def test_jitter_preserves_order(self, sim, collector):
        q = NetemQdisc(
            sim, sink=collector, delay_ns=ms(5), jitter_ns=ms(4), rng=random.Random(3)
        )
        for i in range(50):
            sim.schedule(i * us(10), q.enqueue, make_dgram(100, pn=i))
        sim.run()
        assert [d.packet_number for d in collector.dgrams] == list(range(50))

    def test_random_loss(self, sim, collector):
        q = NetemQdisc(sim, sink=collector, loss_rate=0.5, rng=random.Random(1))
        for _ in range(200):
            q.enqueue(make_dgram(100))
        sim.run()
        assert 60 < q.stats.dropped < 140
        assert len(collector) == 200 - q.stats.dropped

    def test_loss_drops_counted_separately(self, sim, collector):
        q = NetemQdisc(sim, sink=collector, loss_rate=0.3, rng=random.Random(2))
        for _ in range(300):
            q.enqueue(make_dgram(100))
        sim.run()
        assert q.stats.dropped_loss > 0
        assert q.stats.dropped_overflow == 0
        assert q.stats.dropped == q.stats.dropped_loss
        assert q.stats.as_dict()["dropped_loss"] == q.stats.dropped_loss

    def test_overflow_drops_counted_separately(self, sim, collector):
        q = NetemQdisc(sim, sink=collector, delay_ns=ms(20), limit_packets=5)
        for _ in range(8):
            q.enqueue(make_dgram(100))
        sim.run()
        assert q.stats.dropped_overflow == 3
        assert q.stats.dropped_loss == 0
        assert q.stats.dropped == 3
        assert len(collector) == 5

    def test_default_rng_derives_from_seed(self, sim):
        def drops(seed, name="netem"):
            c = Collector(sim)
            q = NetemQdisc(sim, name=name, sink=c, loss_rate=0.5, seed=seed)
            pattern = []
            for _ in range(64):
                before = q.stats.dropped_loss
                q.enqueue(make_dgram(100))
                pattern.append(q.stats.dropped_loss > before)
            return pattern

        # Deterministic per (seed, name) — and different across seeds and
        # across instance names, unlike the old shared Random(0) default.
        assert drops(1) == drops(1)
        assert drops(1) != drops(2)
        assert drops(3, "netem-fwd") != drops(3, "netem-rev")


class TestFqCodel:
    def test_pass_through_without_drain_rate(self, sim, collector):
        q = FqCodel(sim, sink=collector)
        for i in range(5):
            q.enqueue(make_dgram(100, pn=i))
        sim.run()
        assert len(collector) == 5

    def test_ignores_txtime(self, sim, collector):
        q = FqCodel(sim, sink=collector)
        q.enqueue(make_dgram(100, txtime=us(10_000)))
        sim.run()
        assert collector.times[0] < us(10_000)

    def test_codel_drops_under_sustained_overload(self, sim, collector):
        q = FqCodel(sim, sink=collector, drain_rate_bps=mbit(10), target_ns=ms(5), interval_ns=ms(100))
        # Offer 4x the drain rate for a while: sojourn exceeds target.
        gap = tx_time_ns(make_dgram(1252).serialized_size, mbit(40))
        for i in range(800):
            sim.schedule(i * gap, q.enqueue, make_dgram(1252))
        sim.run()
        assert q.stats.dropped > 0
        assert q.stats.dequeued + q.stats.dropped <= 800

    def test_no_codel_drops_when_underloaded(self, sim, collector):
        q = FqCodel(sim, sink=collector, drain_rate_bps=mbit(100))
        gap = tx_time_ns(make_dgram(1252).serialized_size, mbit(40))
        for i in range(100):
            sim.schedule(i * gap, q.enqueue, make_dgram(1252))
        sim.run()
        assert q.stats.dropped == 0


class TestFactory:
    def test_known_names(self, sim, collector):
        assert isinstance(make_qdisc("none", sim, collector), PfifoFast)
        assert isinstance(make_qdisc("fq", sim, collector), FqQdisc)
        assert isinstance(make_qdisc("fq_codel", sim, collector), FqCodel)
        assert isinstance(make_qdisc("etf", sim, collector), EtfQdisc)
        assert isinstance(make_qdisc("etf-offload", sim, collector), EtfQdisc)
        # Exactly the names a config accepts.
        for name in QDISCS:
            make_qdisc(name, sim, collector)

    def test_unknown_name_raises(self, sim, collector):
        # The qdiscs a config cannot name are not reachable by name either.
        for name in ("htb", "pfifo_fast", "tbf", "netem"):
            with pytest.raises(ConfigError):
                make_qdisc(name, sim, collector)

    def test_params_forwarded(self, sim, collector):
        etf = make_qdisc("etf", sim, collector, delta_ns=us(500))
        assert etf.delta_ns == us(500)
