"""The composable fault-injection layer: specs, stages, and the modulator."""

import random
from dataclasses import asdict

import pytest

from repro.errors import ConfigError
from repro.net.bottleneck import Bottleneck
from repro.net.impairments import (
    DuplicateStage,
    GilbertElliottStage,
    IidLossStage,
    ImpairmentSpec,
    LinkFlapper,
    ReorderStage,
    build_impairments,
    burst_loss,
    duplication,
    iid_loss,
    rate_flap,
    reordering,
)
from repro.units import mbit, ms, us
from tests.conftest import Collector, make_dgram


def _run_stage(sim, collector, cls, spec, seed=7, count=1000):
    stage = cls(sim, spec, collector, random.Random(seed))
    for i in range(count):
        stage.receive(make_dgram(1252, pn=i))
    sim.run()
    return stage


class TestSpecs:
    def test_factories_validate(self):
        for spec in (
            iid_loss(0.01),
            burst_loss(),
            reordering(),
            duplication(0.02),
            rate_flap(),
        ):
            spec.validate()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            ImpairmentSpec(kind="gremlins").validate()

    @pytest.mark.parametrize(
        "spec",
        [
            ImpairmentSpec(kind="loss", rate=0.0),
            ImpairmentSpec(kind="loss", rate=1.5),
            ImpairmentSpec(kind="burst", rate=1.0, p_enter=0.0, p_exit=0.5),
            ImpairmentSpec(kind="reorder", rate=0.1, extra_delay_ns=0),
            ImpairmentSpec(kind="rate_flap", low_rate_bps=0, period_ns=ms(100)),
            ImpairmentSpec(kind="rate_flap", low_rate_bps=mbit(1), period_ns=0),
            ImpairmentSpec(
                kind="rate_flap", low_rate_bps=mbit(1), period_ns=ms(100), duty=1.0
            ),
        ],
    )
    def test_bad_parameters_rejected(self, spec):
        with pytest.raises(ConfigError):
            spec.validate()

    def test_specs_are_asdict_serializable(self):
        # cache_key() relies on asdict over the nested NetworkConfig.
        d = asdict(burst_loss())
        assert d["kind"] == "burst"
        assert d["p_exit"] == 0.3

    def test_slugs_are_distinct(self):
        slugs = {
            spec.slug
            for spec in (iid_loss(0.01), burst_loss(), reordering(), duplication(0.02), rate_flap())
        }
        assert len(slugs) == 5


class TestLossStages:
    def test_iid_loss_rate(self, sim, collector):
        stage = _run_stage(sim, collector, IidLossStage, iid_loss(0.1), count=5000)
        assert stage.stats.seen == 5000
        assert stage.stats.injected_drops + len(collector) == 5000
        assert 0.07 < stage.stats.injected_drops / 5000 < 0.13

    def test_iid_loss_deterministic_per_seed(self, sim):
        drops = []
        for _ in range(2):
            c = Collector(sim)
            stage = _run_stage(sim, c, IidLossStage, iid_loss(0.05), seed=3)
            drops.append(stage.stats.injected_drops)
        assert drops[0] == drops[1]

    def test_gilbert_elliott_bursts(self, sim, collector):
        spec = burst_loss(p_enter=0.01, p_exit=0.25, loss_bad=1.0)
        stage = _run_stage(sim, collector, GilbertElliottStage, spec, count=20000)
        assert stage.bursts_entered > 0
        # Mean burst length tracks 1/p_exit (= 4), well above i.i.d.'s 1.
        mean_burst = stage.stats.injected_drops / stage.bursts_entered
        assert 2.0 < mean_burst < 8.0

    def test_gilbert_elliott_drops_cluster(self, sim, collector):
        spec = burst_loss(p_enter=0.005, p_exit=0.2)
        _run_stage(sim, collector, GilbertElliottStage, spec, count=20000)
        delivered = [d.packet_number for d in collector.dgrams]
        gaps = [b - a for a, b in zip(delivered, delivered[1:]) if b - a > 1]
        # Burst loss shows up as multi-packet holes in the delivered sequence.
        assert any(gap >= 3 for gap in gaps)


class TestReorderDuplicate:
    def test_reorder_delays_some_packets(self, sim, collector):
        spec = reordering(rate=0.2, extra_delay_ns=ms(2))
        stage = ReorderStage(sim, spec, collector, random.Random(11))
        for i in range(200):
            stage.receive(make_dgram(1252, pn=i))
            sim.run(until=sim.now + us(100))
        sim.run()
        assert stage.stats.reordered > 10
        assert len(collector) == 200  # nothing lost
        order = [d.packet_number for d in collector.dgrams]
        assert order != sorted(order)  # genuinely out of order
        assert sorted(order) == list(range(200))

    def test_duplicate_emits_copies(self, sim, collector):
        stage = _run_stage(sim, collector, DuplicateStage, duplication(0.1), count=2000)
        assert stage.stats.duplicated > 100
        assert len(collector) == 2000 + stage.stats.duplicated
        # Duplicates share packet number and dgram id with the original.
        pns = [d.packet_number for d in collector.dgrams]
        assert len(set(pns)) == 2000

    def test_duplicate_is_a_distinct_object(self, sim, collector):
        stage = DuplicateStage(sim, duplication(1.0), collector, random.Random(1))
        original = make_dgram(1252, pn=7)
        original.gso_id = 3
        original.payload = object()
        stage.receive(original)
        sim.run()
        assert len(collector) == 2
        dup = collector.dgrams[1]
        assert dup is not original
        assert dup.dgram_id == original.dgram_id
        assert (dup.packet_number, dup.gso_id) == (7, 3)
        assert dup.payload is original.payload
        assert dup.wire_size == original.wire_size
        assert dup.serialized_size == original.serialized_size


class TestLinkFlapper:
    def test_rate_toggles_on_schedule(self, sim, collector):
        bn = Bottleneck(sim, "bn", rate_bps=mbit(40), queue_limit_bytes=1 << 20, sink=collector)
        spec = rate_flap(low_rate_bps=mbit(10), period_ns=ms(100), duty=0.5)
        flapper = LinkFlapper(sim, bn, spec)
        sim.run(until=ms(75))
        assert flapper.low and bn.rate_bps == mbit(10)
        sim.run(until=ms(125))
        assert not flapper.low and bn.rate_bps == mbit(40)
        assert flapper.transitions == 2

    def test_flap_slows_drain(self, sim, collector):
        bn = Bottleneck(sim, "bn", rate_bps=mbit(8), queue_limit_bytes=1 << 22, sink=collector)
        LinkFlapper(sim, bn, rate_flap(low_rate_bps=mbit(1), period_ns=ms(40), duty=0.25))
        for i in range(400):
            bn.receive(make_dgram(1252, pn=i))
        sim.run(until=ms(400))
        # Mostly-slow (duty 0.25) drain: far fewer than the full-rate 400.
        assert 0 < len(collector) < 400

    def test_set_rate_replans_pending_drain(self, sim, collector):
        bn = Bottleneck(sim, "bn", rate_bps=mbit(1), queue_limit_bytes=1 << 20, sink=collector)
        for i in range(10):
            bn.receive(make_dgram(1252, pn=i))
        sim.run(until=ms(1))
        before = len(collector)
        bn.set_rate(mbit(1000))
        sim.run(until=ms(2))
        # The fast rate takes effect immediately rather than after the stale
        # slow-rate token deadline.
        assert len(collector) == 10
        assert before < 10


class TestBuildChain:
    def test_chain_order_and_streams(self, sim, collector):
        specs = (iid_loss(0.01), reordering(), duplication(0.01))
        names = []

        def rng_for(name):
            names.append(name)
            return random.Random(len(names))

        head, stages, flappers = build_impairments(
            specs, sim, collector, rng_for, direction="fwd"
        )
        assert [s.spec.kind for s in stages] == ["loss", "reorder", "duplicate"]
        assert head is stages[0]
        assert stages[0].sink is stages[1] and stages[1].sink is stages[2]
        assert stages[2].sink is collector
        assert not flappers
        assert sorted(names) == ["fwd/0/loss", "fwd/1/reorder", "fwd/2/duplicate"]

    def test_empty_chain_passes_sink_through(self, sim, collector):
        head, stages, flappers = build_impairments(
            (), sim, collector, lambda name: random.Random(0), direction="rev"
        )
        assert head is collector and not stages and not flappers

    def test_rate_flap_requires_bottleneck(self, sim, collector):
        with pytest.raises(ConfigError):
            build_impairments(
                (rate_flap(),), sim, collector, lambda name: random.Random(0), direction="rev"
            )

    def test_rate_flap_attaches_to_bottleneck(self, sim, collector):
        bn = Bottleneck(sim, "bn", rate_bps=mbit(40), queue_limit_bytes=1 << 20, sink=collector)
        head, stages, flappers = build_impairments(
            (rate_flap(), iid_loss(0.01)),
            sim,
            bn,
            lambda name: random.Random(0),
            direction="fwd",
            bottleneck=bn,
        )
        assert len(flappers) == 1 and flappers[0].bottleneck is bn
        assert [s.spec.kind for s in stages] == ["loss"]
        assert head is stages[0]

    def test_drop_event_hook(self, sim, collector):
        events = []
        head, stages, _ = build_impairments(
            (iid_loss(0.5),), sim, collector, lambda name: random.Random(5), direction="fwd"
        )
        stages[0].on_event = lambda name, t, data: events.append((name, t, data))
        for i in range(100):
            head.receive(make_dgram(1252, pn=i))
        assert events
        name, _, data = events[0]
        assert name == "network:injected_drop"
        assert data["kind"] == "loss" and data["stage"] == "fwd/0/loss"
