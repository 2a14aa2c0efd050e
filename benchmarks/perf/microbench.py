"""Microbenchmarks for the four hot layers of the simulator.

Each function exercises one subsystem in isolation with synthetic load and
returns a ``best_of`` record. Sizes are chosen so each benchmark runs in
roughly 0.1-0.5 s per repetition on a laptop; they measure per-operation
cost, so absolute size barely matters beyond amortizing setup.
"""

from __future__ import annotations

import random
from typing import Dict

from benchmarks.perf import best_of

from repro.kernel.qdisc.fq import FqQdisc
from repro.metrics.gaps import Distribution, inter_packet_gaps
from repro.net.packet import Datagram
from repro.net.tap import Sniffer
from repro.sim.engine import Simulator


def bench_event_throughput(n: int = 200_000, repeats: int = 3) -> Dict:
    """Schedule-and-run throughput of the tuple-heap event engine.

    90 % plain fire-and-forget events plus 10 % cancellable ones (half of
    which get cancelled), matching the production mix where only recovery
    timers and pacers ever cancel.
    """

    def run() -> int:
        sim = Simulator()

        def tick() -> None:
            pass

        for i in range(n):
            sim.schedule_at(i, tick)
        handles = [
            sim.schedule_at_cancellable(n + i, tick) for i in range(n // 10)
        ]
        for h in handles[::2]:
            h.cancel()
        sim.run()
        return n + len(handles)

    return best_of(run, repeats)


def bench_timer_rearm(
    n_timers: int = 20_000, rounds: int = 20, repeats: int = 3
) -> Dict:
    """Steady-population timer churn: the thousands-of-flows scheduling
    pattern, measured in isolation.

    Every recovery/delayed-ACK/pacing deadline in a flow population is
    superseded many times before one finally fires. Here ``n_timers``
    reusable timers are each re-armed ``rounds`` times (every re-arm leaves
    one stale soft-cancelled calendar entry behind) and the population then
    runs to quiescence. One "op" is one (re-)arm. The committed baseline
    additionally records the pre-PR cancel-and-reschedule cost of this
    pattern (``pre_pr_timer_rearm``) for the cross-PR speedup.
    """

    def run() -> int:
        sim = Simulator()
        fired = [0]

        def tick() -> None:
            fired[0] += 1

        timers = [sim.timer(tick) for _ in range(n_timers)]
        deadline = 0
        for _ in range(rounds):
            deadline += 1_000
            for i, timer in enumerate(timers):
                timer.schedule_at(deadline + (i * 37 & 0xFF))
        sim.run()
        assert fired[0] == n_timers
        return n_timers * rounds

    return best_of(run, repeats)


def bench_qdisc(n: int = 30_000, flows: int = 8, repeats: int = 3) -> Dict:
    """FQ qdisc enqueue + scheduled dequeue of ``n`` datagrams.

    Spreads packets over several flows so the round-robin and per-flow queue
    machinery is exercised, then drains the whole backlog through the event
    engine. One "op" is one packet through the qdisc (in and out).
    """

    class ListSink:
        def __init__(self) -> None:
            self.frames: list = []

        def receive(self, dgram: Datagram) -> None:
            self.frames.append(dgram)

    def run() -> int:
        sim = Simulator()
        sink = ListSink()
        # Limits sized to hold the whole burst: this measures per-packet
        # machinery, not drop behaviour.
        qdisc = FqQdisc(
            sim,
            sink=sink,
            limit_packets=n + 1,
            flow_limit_packets=n,
            rng=random.Random(7),
        )
        flow_tuples = [
            ("10.0.0.1", 40_000 + f, "10.0.0.2", 443) for f in range(flows)
        ]
        for i in range(n):
            qdisc.enqueue(
                Datagram(flow=flow_tuples[i % flows], payload_size=1252)
            )
        sim.run()
        assert len(sink.frames) == n
        return n

    return best_of(run, repeats)


def bench_capture_append(n: int = 100_000, repeats: int = 3) -> Dict:
    """Columnar capture append plus one full records materialization.

    Measures the per-packet cost of ``Sniffer.capture`` (seven array appends
    and an interned-flow lookup) and the one-time cost of serving the lazy
    ``records`` view and the per-host cached index afterwards.
    """

    def run() -> int:
        sniffer = Sniffer()
        fwd = ("10.0.0.2", 443, "10.0.0.1", 40_000)
        rev = ("10.0.0.1", 40_000, "10.0.0.2", 443)
        for i in range(n):
            sniffer.capture(
                i * 1000,
                Datagram(
                    flow=fwd if i % 4 else rev,
                    payload_size=1252,
                    packet_number=i,
                ),
            )
        assert len(sniffer.records) == n
        assert len(sniffer.from_host("10.0.0.2")) == n - n // 4
        return n

    return best_of(run, repeats)


def bench_gap_analysis(n: int = 200_000, repeats: int = 3) -> Dict:
    """Inter-packet gap extraction plus the sort-once Distribution metrics.

    Feeds a synthetic capture column of ``n`` timestamps through the same
    cdf / percentile / fraction_leq pipeline the figure benchmarks use.
    """
    rng = random.Random(3)
    times = []
    t = 0
    for _ in range(n):
        t += rng.randrange(1_000, 500_000)
        times.append(t)

    def run() -> int:
        sniffer = Sniffer()
        flow = ("10.0.0.2", 443, "10.0.0.1", 40_000)
        for ts in times:
            sniffer.capture(ts, Datagram(flow=flow, payload_size=1252))
        gaps = Distribution(inter_packet_gaps(sniffer.columns))
        gaps.cdf()
        for p in (5, 25, 50, 75, 95, 99):
            gaps.percentile(p)
        gaps.fraction_leq(15_000)
        return n

    return best_of(run, repeats)


def run_all(repeats: int = 3) -> Dict[str, Dict]:
    return {
        "event_throughput": bench_event_throughput(repeats=repeats),
        "timer_rearm": bench_timer_rearm(repeats=repeats),
        "qdisc_enqueue_dequeue": bench_qdisc(repeats=repeats),
        "capture_append": bench_capture_append(repeats=repeats),
        "gap_analysis": bench_gap_analysis(repeats=repeats),
    }
