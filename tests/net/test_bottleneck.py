"""TBF + netem bottleneck: shaping rate, queue limit drops, added delay."""

from repro.net.bottleneck import Bottleneck
from repro.units import mbit, ms, tx_time_ns, us
from tests.conftest import make_dgram


def _bneck(sim, collector, rate=mbit(40), queue=400_000, burst=5000, delay=0):
    return Bottleneck(
        sim,
        "b",
        rate_bps=rate,
        queue_limit_bytes=queue,
        burst_bytes=burst,
        delay_ns=delay,
        sink=collector,
    )


def test_single_packet_passes(sim, collector):
    b = _bneck(sim, collector)
    b.receive(make_dgram(1000))
    sim.run()
    assert len(collector) == 1
    assert b.forwarded == 1
    assert b.dropped == 0


def test_delay_is_applied(sim, collector):
    b = _bneck(sim, collector, delay=ms(20))
    b.receive(make_dgram(100))
    sim.run()
    assert collector.times[0] >= ms(20)


def test_burst_passes_at_line_rate_then_shapes(sim, collector):
    b = _bneck(sim, collector, burst=5000)
    # 10 packets of ~1294B wire size; bucket holds ~3.8 of them.
    for i in range(10):
        b.receive(make_dgram(1252, pn=i))
    sim.run()
    gaps = [collector.times[i] - collector.times[i - 1] for i in range(1, 10)]
    shaped_gap = tx_time_ns(make_dgram(1252).wire_size, mbit(40))
    # Early gaps are near zero (bucket), later gaps at the shaped rate.
    assert gaps[0] < shaped_gap // 10
    assert abs(gaps[-1] - shaped_gap) <= shaped_gap // 5


def test_sustained_rate_matches_configuration(sim, collector):
    b = _bneck(sim, collector, rate=mbit(40), queue=10_000_000)
    n = 200
    for _ in range(n):
        b.receive(make_dgram(1252))
    sim.run()
    duration = collector.times[-1] - collector.times[0]
    wire = make_dgram(1252).wire_size
    rate = (n - 4) * wire * 8 * 1e9 / duration  # allow for the initial burst
    assert mbit(36) < rate < mbit(44)


def test_queue_overflow_drops(sim, collector):
    b = _bneck(sim, collector, queue=5 * make_dgram(1252).wire_size)
    for _ in range(20):
        b.receive(make_dgram(1252))
    sim.run()
    assert b.dropped > 0
    assert b.forwarded + b.dropped == 20
    assert len(collector) == b.forwarded


def test_drop_is_tail_drop(sim, collector):
    b = _bneck(sim, collector, queue=3 * make_dgram(1252).wire_size)
    for i in range(10):
        b.receive(make_dgram(1252, pn=i))
    sim.run()
    # The packets that survive are the earliest ones.
    assert [d.packet_number for d in collector.dgrams] == sorted(
        d.packet_number for d in collector.dgrams
    )
    assert collector.dgrams[0].packet_number == 0


def test_ordering_preserved(sim, collector):
    b = _bneck(sim, collector, queue=10_000_000)
    for i in range(50):
        b.receive(make_dgram(800, pn=i))
    sim.run()
    pns = [d.packet_number for d in collector.dgrams]
    assert pns == sorted(pns)


def test_queue_trace_records_when_enabled(sim, collector):
    b = _bneck(sim, collector)
    b.trace_queue = True
    b.receive(make_dgram(100))
    sim.run()
    assert len(b.queue_trace) >= 2  # enqueue and dequeue samples


def test_frame_larger_than_the_bucket_is_dropped(sim, collector):
    """A frame larger than the bucket could never earn its tokens."""
    b = _bneck(sim, collector, burst=500)
    b.receive(make_dgram(1252))
    sim.run()
    assert (b.dropped, b.forwarded, len(collector)) == (1, 0, 0)


def test_backlog_reported(sim, collector):
    b = _bneck(sim, collector, rate=mbit(1), burst=1500)
    b.receive(make_dgram(1252))
    b.receive(make_dgram(1252))
    assert b.queued == 2 and b.queue_bytes == 2 * make_dgram(1252).wire_size
    sim.run()
    assert (b.queued, b.queue_bytes, b.forwarded) == (0, 0, 2)
