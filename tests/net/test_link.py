"""Link serialization and propagation."""

import random
from collections import deque

import pytest

from repro.errors import ConfigError
from repro.net.link import Link
from repro.sim.engine import Simulator
from repro.units import gbit, mbit, tx_time_ns, us
from tests.conftest import Collector, make_dgram


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


class TwoEventLink:
    """Reference link: one event when a frame's serialization ends, a second
    when it arrives, with the backlog in a FIFO queue."""

    def __init__(self, sim, rate_bps, propagation_ns, sink):
        self.sim = sim
        self.rate_bps = rate_bps
        self.propagation_ns = propagation_ns
        self.sink = sink
        self._queue = deque()
        self._busy = False

    def receive(self, dgram):
        if self._busy:
            self._queue.append(dgram)
        else:
            self._busy = True
            self._serialize(dgram)

    def _serialize(self, dgram):
        self.sim.schedule(tx_time_ns(dgram.serialized_size, self.rate_bps), self._finish, dgram)

    def _finish(self, dgram):
        self.sim.schedule(self.propagation_ns, self.sink.receive, dgram)
        if self._queue:
            self._serialize(self._queue.popleft())
        else:
            self._busy = False


def _pushes(seed, n):
    """``n`` (time, frame) pushes: back-to-back bursts, gaps shorter than a
    frame's serialization, and idle gaps the line drains in."""
    rng = random.Random(seed)
    t, pushes = 0, []
    for pn in range(n):
        t += rng.choice([0, 0, rng.randrange(1, us(100)), rng.randrange(us(100), us(2000))])
        pushes.append((t, make_dgram(rng.randrange(40, 1473), pn=pn)))
    return pushes


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("propagation_ns", [0, us(1), us(250)])
def test_departure_timestamp_matches_two_event_reference(seed, propagation_ns):
    """The link with one calendar entry per frame delivers every frame at the
    instant, and in the order, that serialize-then-propagate does."""
    n = 400
    runs = []
    for make in (
        lambda s, c: Link(s, "l", rate_bps=mbit(100), propagation_ns=propagation_ns, sink=c),
        lambda s, c: TwoEventLink(s, mbit(100), propagation_ns, c),
    ):
        s = Simulator()
        col = Collector(s)
        link = make(s, col)
        for t, dgram in _pushes(seed, n):
            s.run(until=t)
            link.receive(dgram)
        s.run()
        runs.append(([(t, d.packet_number) for t, d in col.items], s.events_processed))
    (arrivals, events), (ref_arrivals, ref_events) = runs
    assert arrivals == ref_arrivals and len(arrivals) == n
    assert (events, ref_events) == (n, 2 * n)


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


def test_negative_propagation_rejected_at_construction(sim, collector):
    """A negative delay would deliver a frame before its last bit left."""
    with pytest.raises(ConfigError, match="'l': propagation_ns must not be negative"):
        Link(sim, "l", rate_bps=gbit(1), propagation_ns=-5, sink=collector)
