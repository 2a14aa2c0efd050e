"""WiFi aggregating bottleneck."""

from repro.net.wifi import WifiBottleneck
from repro.units import mbit, ms, us
from tests.conftest import make_dgram


def _wifi(sim, collector, **kwargs):
    kwargs.setdefault("phy_rate_bps", mbit(60))
    kwargs.setdefault("access_overhead_ns", us(400))
    kwargs.setdefault("max_aggregate", 8)
    return WifiBottleneck(sim, "wifi", sink=collector, **kwargs)


def test_single_frame_pays_full_access_overhead(sim, collector):
    w = _wifi(sim, collector)
    w.receive(make_dgram(1252))
    sim.run()
    assert len(collector) == 1
    assert collector.times[0] >= us(400)
    assert w.accesses == 1


def test_burst_shares_one_access(sim, collector):
    w = _wifi(sim, collector)
    for i in range(8):
        w.receive(make_dgram(1252, pn=i))
    sim.run()
    assert w.accesses == 1
    assert w.aggregated_frames == 8
    # All frames of the aggregate are delivered together.
    assert len(set(collector.times)) == 1


def test_aggregate_cap(sim, collector):
    w = _wifi(sim, collector, max_aggregate=4)
    for i in range(10):
        w.receive(make_dgram(1252, pn=i))
    sim.run()
    assert w.accesses == 3  # 4 + 4 + 2
    assert len(collector) == 10


def test_bursty_offered_load_gets_higher_throughput(sim, collector):
    """The core Manzoor mechanism: same bytes, bursty arrivals finish sooner."""
    from repro.sim.engine import Simulator
    from tests.conftest import Collector

    def run(spacing_ns):
        s = Simulator()
        col = Collector(s)
        w = WifiBottleneck(s, "w", phy_rate_bps=mbit(60), access_overhead_ns=us(400),
                           max_aggregate=32, sink=col)
        for i in range(64):
            s.schedule(i * spacing_ns, w.receive, make_dgram(1252, pn=i))
        s.run()
        return col.times[-1], w.aggregated_frames / w.accesses

    paced_finish, paced_agg = run(us(250))  # one packet per 250 us
    bursty_finish, bursty_agg = run(0)  # all at once
    assert bursty_agg > 1.5 * paced_agg
    assert bursty_finish < paced_finish


def test_ordering_preserved(sim, collector):
    w = _wifi(sim, collector, max_aggregate=3)
    for i in range(9):
        sim.schedule(i * us(50), w.receive, make_dgram(1252, pn=i))
    sim.run()
    pns = [d.packet_number for d in collector.dgrams]
    assert pns == sorted(pns)


def test_queue_overflow_drops_and_counts_by_flow(sim, collector):
    wire = make_dgram(1252).wire_size
    w = _wifi(sim, collector, queue_limit_bytes=3 * wire)
    flow = ("a", 1, "b", 2)
    for i in range(10):
        w.receive(make_dgram(1252, pn=i, flow=flow))
    sim.run()
    assert w.dropped > 0
    assert w.drops_by_flow[flow] == w.dropped


def test_delay_applied_after_access(sim, collector):
    w = _wifi(sim, collector, delay_ns=ms(20))
    w.receive(make_dgram(100))
    sim.run()
    assert collector.times[0] >= ms(20) + us(400)
