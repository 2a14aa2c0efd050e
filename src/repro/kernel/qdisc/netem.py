"""netem as a fixed delay line.

A multi-flow run's extra per-flow RTT (the paper's 20 ms each way are the
bottleneck's and the reverse link's delays). Every packet is held
``delay_ns`` and released in order; there is no jitter, loss or limit (loss
injection is :mod:`repro.net.impairments`' ``iid_loss`` stage).
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.qdisc.base import Qdisc
from repro.net.packet import Datagram, PacketSink
from repro.sim.engine import Simulator


class NetemQdisc(Qdisc):
    honors_txtime = False

    def __init__(
        self,
        sim: Simulator,
        name: str = "netem",
        sink: Optional[PacketSink] = None,
        delay_ns: int = 20_000_000,
    ):
        super().__init__(sim, name, sink)
        self.delay_ns = delay_ns

    def enqueue(self, dgram: Datagram) -> None:
        self.stats.enqueued += 1
        # A fixed delay keeps the arrival order.
        self.sim.schedule(self.delay_ns, self.emit, dgram)
