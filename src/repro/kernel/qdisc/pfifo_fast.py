"""pfifo_fast: the classic default qdisc.

Three-band strict-priority FIFO. It ignores SO_TXTIME timestamps entirely —
packets flow straight through to the device (our device model applies its own
serialization), subject only to a packet-count limit (``txqueuelen``).
This is the "no pacing help from the kernel" configuration.

The model holds no bands: every datagram would land in band 1 ("best
effort": a datagram carries no TOS hint), and the device below is never the
bottleneck on the server side (1 Gbit/s), so a packet leaves the moment it
is enqueued. The queue is empty whenever a packet arrives, and only a zero
limit drops.
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.qdisc.base import Qdisc
from repro.net.packet import Datagram, PacketSink
from repro.sim.engine import Simulator


class PfifoFast(Qdisc):
    honors_txtime = False

    def __init__(
        self,
        sim: Simulator,
        name: str = "pfifo_fast",
        sink: Optional[PacketSink] = None,
        limit_packets: int = 1000,
    ):
        super().__init__(sim, name, sink)
        self.limit_packets = limit_packets

    def enqueue(self, dgram: Datagram) -> None:
        self.stats.enqueued += 1
        if self.limit_packets <= 0:  # the empty queue is already at its limit
            self.stats.dropped += 1
            return
        self.emit(dgram)
