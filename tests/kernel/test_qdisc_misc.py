"""pfifo_fast, netem, and the qdisc factory."""

import pytest

from repro.errors import ConfigError
from repro.framework.config import QDISCS
from repro.kernel.qdisc import (
    EtfQdisc,
    FqQdisc,
    NetemQdisc,
    PfifoFast,
    make_qdisc,
)
from repro.units import ms, us
from tests.conftest import make_dgram


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


class TestFactory:
    def test_known_names(self, sim, collector):
        assert isinstance(make_qdisc("none", sim, collector), PfifoFast)
        assert isinstance(make_qdisc("fq", sim, collector), FqQdisc)
        assert isinstance(make_qdisc("etf", sim, collector), EtfQdisc)
        assert isinstance(make_qdisc("etf-offload", sim, collector), EtfQdisc)
        # Exactly the names a config accepts.
        for name in QDISCS:
            make_qdisc(name, sim, collector)

    def test_cli_offers_exactly_the_config_names(self):
        from repro.cli import build_parser

        (run,) = (
            action.choices["run"]
            for action in build_parser()._actions
            if action.dest == "command"
        )
        (qdisc,) = (action for action in run._actions if action.dest == "qdisc")
        assert tuple(qdisc.choices) == QDISCS

    def test_unknown_name_raises(self, sim, collector):
        # The qdiscs a config cannot name are not reachable by name either.
        for name in ("htb", "pfifo_fast", "tbf", "netem", "fq_codel"):
            with pytest.raises(ConfigError):
                make_qdisc(name, sim, collector)

    def test_params_forwarded(self, sim, collector):
        etf = make_qdisc("etf", sim, collector, delta_ns=us(500))
        assert etf.delta_ns == us(500)
