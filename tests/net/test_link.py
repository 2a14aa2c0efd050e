"""Link serialization and propagation."""

import pytest

from repro.errors import ConfigError
from repro.net.link import Link
from repro.units import gbit, mbit, tx_time_ns, us
from tests.conftest import make_dgram


def test_single_frame_delivery_time(sim, collector):
    link = Link(sim, "l", rate_bps=gbit(1), propagation_ns=us(1), sink=collector)
    d = make_dgram(1252)
    link.receive(d)
    sim.run()
    assert len(collector) == 1
    expected = tx_time_ns(d.serialized_size, gbit(1)) + us(1)
    assert collector.times[0] == expected


def test_back_to_back_frames_serialize_sequentially(sim, collector):
    link = Link(sim, "l", rate_bps=mbit(100), sink=collector)
    for _ in range(3):
        link.receive(make_dgram(1000))
    sim.run()
    assert len(collector) == 3
    gaps = [collector.times[i] - collector.times[i - 1] for i in (1, 2)]
    per_frame = tx_time_ns(make_dgram(1000).serialized_size, mbit(100))
    assert gaps == [per_frame, per_frame]


def test_link_preserves_order(sim, collector):
    link = Link(sim, "l", rate_bps=gbit(1), sink=collector)
    dgrams = [make_dgram(100, pn=i) for i in range(10)]
    for d in dgrams:
        link.receive(d)
    sim.run()
    assert [d.packet_number for d in collector.dgrams] == list(range(10))


def test_busy_flag_and_queue_depth(sim, collector):
    link = Link(sim, "l", rate_bps=mbit(1), sink=collector)
    link.receive(make_dgram(1000))
    link.receive(make_dgram(1000))
    assert link.busy
    assert link.queued == 1
    sim.run()
    assert not link.busy
    assert link.queued == 0


def test_counters(sim, collector):
    link = Link(sim, "l", rate_bps=gbit(1), sink=collector)
    for _ in range(4):
        link.receive(make_dgram(500))
    sim.run()
    assert link.frames_sent == 4
    assert link.bytes_sent == 4 * make_dgram(500).wire_size


def test_larger_frames_take_longer(sim):
    times = []
    for size in (100, 1400):
        s = type(sim)()  # fresh simulator
        from tests.conftest import Collector

        col = Collector(s)
        link = Link(s, "l", rate_bps=mbit(10), sink=col)
        link.receive(make_dgram(size))
        s.run()
        times.append(col.times[0])
    assert times[1] > times[0]


@pytest.mark.parametrize("rate_bps", [0, -1])
def test_non_positive_rate_rejected_at_construction(sim, collector, rate_bps):
    """A link that could never finish a frame fails where it is built, not
    at its first frame halfway through a run."""
    with pytest.raises(ConfigError, match="'l': rate_bps must be positive"):
        Link(sim, "l", rate_bps=rate_bps, sink=collector)
