"""pfifo_fast: the classic default qdisc.

Three-band strict-priority FIFO. It ignores SO_TXTIME timestamps entirely —
packets flow straight through to the device (our device model applies its own
serialization), subject only to a packet-count limit (``txqueuelen``).
This is the "no pacing help from the kernel" configuration.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.net.packet import Datagram, PacketSink
from repro.kernel.qdisc.base import Qdisc
from repro.sim.engine import Simulator

#: TOS-to-band mapping is irrelevant for our single-class traffic; we keep the
#: three bands for structural fidelity and put everything in band 1 ("best
#: effort") — a datagram carries no priority hint.
_BANDS = 3


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
        self._bands: list[deque[Datagram]] = [deque() for _ in range(_BANDS)]
        self._len = 0

    def enqueue(self, dgram: Datagram) -> None:
        self.stats.enqueued += 1
        if self._len >= self.limit_packets:
            self.stats.dropped += 1
            return
        self._bands[1].append(dgram)
        self._len += 1
        # The device in this simulation is never the bottleneck on the server
        # side (1 Gbit/s), so dequeue immediately in priority order.
        self._drain()

    def _drain(self) -> None:
        while self._len:
            for band in self._bands:
                if band:
                    dgram = band.popleft()
                    self._len -= 1
                    self.emit(dgram)
                    break
