"""WiFi-style bottleneck with frame aggregation (A-MPDU).

Related-work substrate: Manzoor et al. (cited in Section 5) found that
*disabling* pacing improves QUIC over WiFi — 802.11n/ac channel access costs
a fixed overhead (DIFS, backoff, preamble, block-ACK) per transmit
opportunity, but one TXOP can carry an aggregated batch of frames. Bursty
senders fill aggregates and amortize the overhead; perfectly paced senders
offer one frame per access and waste most of the airtime.

The model: the link alternates channel accesses. Each access costs
``access_overhead_ns`` plus the PHY serialization of up to ``max_aggregate``
frames taken from the queue at access start; the whole aggregate is
delivered at the end of the access. Effective throughput therefore rises
with the typical queue depth at access time — the mechanism behind the
paper's "increased burstiness improves their results".
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.net.packet import Datagram, PacketSink
from repro.sim.engine import Simulator
from repro.units import tx_time_ns, us


class WifiBottleneck:
    """Aggregating channel-access bottleneck (drop-tail queue).

    Exposes the same accounting surface as :class:`~repro.net.bottleneck.Bottleneck`
    (``dropped``, ``forwarded``, ``drops_by_flow``, ``queue_trace``) so it can
    substitute for the TBF stage in experiments.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        phy_rate_bps: int = 60_000_000,
        access_overhead_ns: int = us(400),
        max_aggregate: int = 32,
        aggregation_delay_ns: int = us(20),
        queue_limit_bytes: int = 400_000,
        delay_ns: int = 0,
        sink: Optional[PacketSink] = None,
    ):
        self.sim = sim
        self.name = name
        self.phy_rate_bps = phy_rate_bps
        self.access_overhead_ns = access_overhead_ns
        self.max_aggregate = max_aggregate
        #: Short wait before seizing the channel (drivers hold frames briefly
        #: to build A-MPDUs; also covers the DIFS slot before contention).
        self.aggregation_delay_ns = aggregation_delay_ns
        self.queue_limit_bytes = queue_limit_bytes
        self.delay_ns = delay_ns
        self.sink = sink

        self._queue: deque[Datagram] = deque()
        self._queue_bytes = 0
        self._busy = False

        self.dropped = 0
        self.forwarded = 0
        self.bytes_forwarded = 0
        self.accesses = 0
        self.aggregated_frames = 0
        self.drops_by_flow: dict = {}
        self.queue_trace: list[tuple[int, int]] = []
        self.trace_queue = False

    @property
    def mean_aggregate(self) -> float:
        return self.aggregated_frames / self.accesses if self.accesses else 0.0

    def receive(self, dgram: Datagram) -> None:
        if self._queue_bytes + dgram.wire_size > self.queue_limit_bytes:
            self.dropped += 1
            self.drops_by_flow[dgram.flow] = self.drops_by_flow.get(dgram.flow, 0) + 1
            return
        self._queue.append(dgram)
        self._queue_bytes += dgram.wire_size
        if self.trace_queue:
            self.queue_trace.append((self.sim.now, self._queue_bytes))
        self._maybe_access()

    def _maybe_access(self) -> None:
        if self._busy or not self._queue:
            return
        self._busy = True
        self.sim.schedule(self.aggregation_delay_ns, self._start_access)

    def _start_access(self) -> None:
        if not self._queue:
            self._busy = False
            return
        # Snapshot the aggregate at access start (frames arriving during the
        # access wait for the next TXOP).
        batch = []
        airtime = self.access_overhead_ns
        while self._queue and len(batch) < self.max_aggregate:
            dgram = self._queue.popleft()
            self._queue_bytes -= dgram.wire_size
            batch.append(dgram)
            airtime += tx_time_ns(dgram.serialized_size, self.phy_rate_bps)
        self.accesses += 1
        self.aggregated_frames += len(batch)
        self.sim.schedule(airtime, self._finish_access, batch)

    def _finish_access(self, batch: list) -> None:
        self._busy = False
        for dgram in batch:
            self.forwarded += 1
            self.bytes_forwarded += dgram.wire_size
            if self.sink is not None:
                self.sim.schedule(self.delay_ns, self.sink.receive, dgram)
        if self.trace_queue:
            self.queue_trace.append((self.sim.now, self._queue_bytes))
        self._maybe_access()
