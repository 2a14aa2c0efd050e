"""FQ — the Fair Queue packet scheduler (Dumazet, 2013).

FQ hashes packets into per-flow queues and, crucially for this paper,
*schedules packets by their SCM_TXTIME timestamp* when the sender sets
SO_TXTIME: a packet whose timestamp lies in the future is held and released
when its time arrives. Unlike ETF, FQ never drops a packet whose timestamp is
already in the past — it simply sends it as soon as possible. This is the
qdisc the paper identifies as "well-suited for pacing QUIC traffic".

Release timing imprecision (kernel hrtimer wheel + softirq processing on the
paper's 6.1-rt kernel) is modelled as a log-normal delay added to each
timed release; the default is calibrated so the Section 4.4 precision metric
lands near the paper's 0.12 ms for FQ.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, Optional

from repro.kernel.qdisc.base import Qdisc
from repro.net.packet import Datagram, FlowTuple, PacketSink
from repro.sim.clock import JitterModel
from repro.sim.engine import Simulator
from repro.units import us


class _Flow:
    __slots__ = ("queue", "armed")

    def __init__(self) -> None:
        self.queue: deque[Datagram] = deque()
        #: A release is scheduled for this flow's head packet. FQ never
        #: cancels the release, so a bool keeps enqueue on the engine's
        #: allocation-free scheduling path.
        self.armed = False


class FqQdisc(Qdisc):
    honors_txtime = True

    def __init__(
        self,
        sim: Simulator,
        name: str = "fq",
        sink: Optional[PacketSink] = None,
        limit_packets: int = 10_000,
        flow_limit_packets: int = 1_000,
        horizon_ns: int = 10_000_000_000,
        horizon_drop: bool = True,
        release_jitter: JitterModel = JitterModel(median_ns=us(55), sigma=0.8),
        rng: Optional[random.Random] = None,
    ):
        super().__init__(sim, name, sink)
        self.limit_packets = limit_packets
        self.flow_limit_packets = flow_limit_packets
        self.horizon_ns = horizon_ns
        self.horizon_drop = horizon_drop
        self.release_jitter = release_jitter
        self.rng = rng or random.Random(0)
        self._flows: Dict[FlowTuple, _Flow] = {}
        self._len = 0
        self.throttled_events = 0

    def enqueue(self, dgram: Datagram) -> None:
        self.stats.enqueued += 1
        if self._len >= self.limit_packets:
            self.stats.dropped += 1
            return
        if (
            dgram.txtime_ns is not None
            and self.horizon_drop
            and dgram.txtime_ns > self.sim.now + self.horizon_ns
        ):
            self.stats.dropped += 1
            return
        flow = self._flows.get(dgram.flow)
        if flow is None:
            flow = _Flow()
            self._flows[dgram.flow] = flow
        if len(flow.queue) >= self.flow_limit_packets:
            self.stats.dropped += 1
            return
        flow.queue.append(dgram)
        self._len += 1
        if not flow.armed:
            self._schedule_head(dgram.flow, flow)

    # -- scheduling ------------------------------------------------------

    def _schedule_head(self, key: FlowTuple, flow: _Flow) -> None:
        if not flow.queue:
            flow.armed = False
            self._flows.pop(key, None)
            return
        txtime = flow.queue[0].txtime_ns
        sim = self.sim
        flow.armed = True
        if txtime is not None and txtime > sim.now:
            self.throttled_events += 1
            sim.schedule_at(txtime + self.release_jitter.sample(self.rng), self._release, key)
        else:  # its time has come: a same-instant hop
            sim.call_soon(self._release, key)

    def _release(self, key: FlowTuple) -> None:
        flow = self._flows.get(key)
        if flow is None or not flow.queue:
            return
        flow.armed = False
        dgram = flow.queue.popleft()
        self._len -= 1
        self.emit(dgram)
        # Packets whose time has also come (or which carry no timestamp) go
        # out in the same softirq pass, back-to-back.
        while flow.queue:
            nxt = flow.queue[0]
            if nxt.txtime_ns is not None and nxt.txtime_ns > self.sim.now:
                break
            flow.queue.popleft()
            self._len -= 1
            self.emit(nxt)
        self._schedule_head(key, flow)

    @property
    def backlog_packets(self) -> int:
        return self._len
