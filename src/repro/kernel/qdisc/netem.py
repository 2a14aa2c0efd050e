"""netem — network emulation qdisc (fixed delay, optional jitter and loss).

A multi-flow run's extra per-flow RTT (the paper's 20 ms each way are the
bottleneck's and the reverse link's delays). Delay is applied per packet,
in order (netem with a large enough limit and no reordering configured).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.kernel.qdisc.base import Qdisc
from repro.net.packet import Datagram, PacketSink
from repro.sim.engine import Simulator
from repro.sim.random import derive_seed


class NetemQdisc(Qdisc):
    honors_txtime = False

    def __init__(
        self,
        sim: Simulator,
        name: str = "netem",
        sink: Optional[PacketSink] = None,
        delay_ns: int = 20_000_000,
        jitter_ns: int = 0,
        loss_rate: float = 0.0,
        limit_packets: int = 100_000,
        rng: Optional[random.Random] = None,
        seed: int = 0,
    ):
        super().__init__(sim, name, sink)
        self.delay_ns = delay_ns
        self.jitter_ns = jitter_ns
        self.loss_rate = loss_rate
        self.limit_packets = limit_packets
        # Prefer an explicit per-experiment stream (the experiment wiring
        # passes ``RngRegistry.stream(...)``). Standalone construction derives
        # from ``seed`` + the qdisc name: the old ``random.Random(0)`` default
        # replayed one process-wide constant loss/jitter pattern in every
        # instance and every repetition.
        if rng is None:
            rng = random.Random(derive_seed(seed, int.from_bytes(name.encode(), "big") & 0xFFFF_FFFF))
        self.rng = rng
        self._in_flight = 0
        self._last_release = 0

    def enqueue(self, dgram: Datagram) -> None:
        self.stats.enqueued += 1
        if self.loss_rate > 0.0 and self.rng.random() < self.loss_rate:
            self.stats.dropped += 1
            self.stats.dropped_loss += 1
            return
        if self._in_flight >= self.limit_packets:
            self.stats.dropped += 1
            self.stats.dropped_overflow += 1
            return
        delay = self.delay_ns
        if self.jitter_ns > 0:
            delay += self.rng.randint(-self.jitter_ns, self.jitter_ns)
            delay = max(delay, 0)
        # Preserve ordering: never release before the previous packet.
        release = max(self.sim.now + delay, self._last_release)
        self._last_release = release
        self._in_flight += 1
        self.sim.schedule_at(release, self._release, dgram)

    def _release(self, dgram: Datagram) -> None:
        self._in_flight -= 1
        self.emit(dgram)
