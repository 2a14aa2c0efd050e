"""The emulated bottleneck: TBF rate limiting followed by netem delay.

Mirrors the paper's Section 3.2 client-side shaping: an intermediate
functional block redirects ingress traffic through a Token Bucket Filter
(40 Mbit/s) whose queue is sized to two bandwidth-delay products, followed by
a 20 ms netem delay stage. Packets that arrive to a full TBF queue are
dropped — these are the "dropped packets" of Tables 1 and 2.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.net.packet import Datagram, FlowTuple, PacketSink
from repro.sim.engine import Simulator
from repro.units import BYTE_NS


class Bottleneck:
    """Token-bucket rate limiter with a finite byte queue, then fixed delay.

    :param rate_bps: drain rate (the emulated bottleneck bandwidth).
    :param queue_limit_bytes: TBF queue size; arrivals beyond it are dropped.
    :param burst_bytes: token bucket depth (tc requires >= rate/HZ; the
        default models ``tc tbf burst 5kb`` at HZ=1000 for 40 Mbit/s).
    :param delay_ns: netem delay applied after shaping (20 ms in the paper).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate_bps: int,
        queue_limit_bytes: int,
        burst_bytes: int = 5_000,
        delay_ns: int = 0,
        ecn_mark_threshold_bytes: Optional[int] = None,
        sink: Optional[PacketSink] = None,
    ):
        self.sim: Simulator = sim
        self.name: str = name
        self.rate_bps: int = rate_bps
        self.queue_limit_bytes: int = queue_limit_bytes
        self.burst_bytes: int = burst_bytes
        self.delay_ns: int = delay_ns
        #: When set, ECN-capable packets arriving to a queue deeper than this
        #: are marked CE instead of waiting for a tail drop.
        self.ecn_mark_threshold_bytes: Optional[int] = ecn_mark_threshold_bytes
        self.sink: Optional[PacketSink] = sink

        self._queue: deque[Datagram] = deque()
        self._queue_bytes: int = 0
        self._tokens: float = float(burst_bytes)
        self._last_refill_ns: int = 0
        self._drain_scheduled: bool = False
        #: Generation stamp carried by scheduled drains; ``set_rate`` bumps it
        #: to invalidate a pending drain without a cancellable heap entry.
        self._drain_gen: int = 0

        self.dropped: int = 0
        self.forwarded: int = 0
        self.bytes_forwarded: int = 0
        self.ce_marked: int = 0
        #: Per-flow drop counts (multi-flow experiments).
        self.drops_by_flow: Dict[FlowTuple, int] = {}
        #: (time_ns, queue_bytes) samples at every enqueue/dequeue, for plots.
        self.queue_trace: List[Tuple[int, int]] = []
        self.trace_queue: bool = False

    # -- token accounting -------------------------------------------------

    def set_rate(self, rate_bps: int) -> None:
        """Change the drain rate mid-run (time-varying link emulation).

        Tokens earned so far are settled at the *old* rate first, so a rate
        change never retroactively rewrites past capacity. A drain wait
        computed under the old rate is cancelled and re-planned at the new
        one, so queued packets neither wait out a stale slow-rate deficit
        nor jump a still-unearned token deadline.
        """
        if rate_bps <= 0:
            raise ValueError(f"bottleneck rate must be positive, got {rate_bps}")
        self._refill()
        self.rate_bps = rate_bps
        if self._drain_scheduled:
            self._drain_gen += 1
            self._drain_scheduled = False
        self._maybe_drain()

    def _refill(self) -> None:
        now = self.sim.now
        elapsed = now - self._last_refill_ns
        if elapsed > 0:
            self._tokens = min(
                float(self.burst_bytes),
                self._tokens + self.rate_bps * elapsed / BYTE_NS,
            )
            self._last_refill_ns = now

    @property
    def queue_bytes(self) -> int:
        return self._queue_bytes

    @property
    def queued(self) -> int:
        return len(self._queue)

    # -- datapath ----------------------------------------------------------

    def receive(self, dgram: Datagram) -> None:
        size = dgram.wire_size
        if size > self.burst_bytes:
            # A frame larger than the bucket could never earn enough tokens.
            self._drop(dgram)
            return
        if self._queue_bytes + size > self.queue_limit_bytes:
            self._drop(dgram)
            return
        if (
            self.ecn_mark_threshold_bytes is not None
            and dgram.ecn in (1, 2)
            and self._queue_bytes > self.ecn_mark_threshold_bytes
        ):
            dgram.ecn = 3
            self.ce_marked += 1
        self._queue.append(dgram)
        self._queue_bytes += size
        if self.trace_queue:
            self.queue_trace.append((self.sim.now, self._queue_bytes))
        if not self._drain_scheduled:
            self._maybe_drain()

    def _drop(self, dgram: Datagram) -> None:
        self.dropped += 1
        self.drops_by_flow[dgram.flow] = self.drops_by_flow.get(dgram.flow, 0) + 1

    def _maybe_drain(self) -> None:
        if self._drain_scheduled or not self._queue:
            return
        self._refill()
        need = self._queue[0].wire_size
        self._drain_scheduled = True
        if self._tokens >= need:
            # The tokens are there: the drain is a same-instant hop.
            self.sim.call_soon(self._drain, self._drain_gen)
            return
        wait = -(-int((need - self._tokens) * BYTE_NS) // self.rate_bps)
        self.sim.schedule(wait if wait > 1 else 1, self._drain, self._drain_gen)

    def _drain(self, gen: int) -> None:
        if gen != self._drain_gen:
            return  # superseded by a rate change
        self._drain_scheduled = False
        queue = self._queue
        if not queue:
            return
        self._refill()
        tokens = self._tokens
        head = queue[0]
        size = head.wire_size
        if tokens < size:
            self._maybe_drain()
            return
        queue.popleft()
        self._tokens = tokens = tokens - size
        self._queue_bytes -= size
        if self.trace_queue:
            self.queue_trace.append((self.sim.now, self._queue_bytes))
        self.forwarded += 1
        self.bytes_forwarded += size
        sim = self.sim
        if self.sink is not None:
            sim.schedule(self.delay_ns, self.sink.receive, head)
        # Re-arm inline, with _maybe_drain's math: the tokens are this
        # instant's. Tokens already there chain one hand-off per packet;
        # the engine's loop calls each in turn, so this never recurses.
        if queue:
            need = queue[0].wire_size
            self._drain_scheduled = True
            if tokens >= need:
                sim.call_soon(self._drain, gen)
                return
            wait = -(-int((need - tokens) * BYTE_NS) // self.rate_bps)
            sim.schedule(wait if wait > 1 else 1, self._drain, gen)
