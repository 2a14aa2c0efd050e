"""Generic Segmentation Offload model, including the paced-GSO kernel patch.

With GSO, the application hands the kernel one large buffer plus a segment
size; the buffer traverses the qdisc as a *single* unit (so FQ schedules the
whole buffer at one timestamp — this is why "GSO prevents pacing within each
batch") and is split into wire packets just above the device.

The paper's kernel patch (adapted from Willem de Bruijn's proposal) lets the
sender attach a **pacing rate in bytes per second to each GSO buffer**; the
kernel then releases the buffer's segments individually at that rate instead
of back-to-back. :class:`GsoSegmenter` implements both behaviours.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.net.packet import Datagram, PacketSink
from repro.sim.engine import Simulator
from repro.units import SEC

#: Per-segment cost of the driver-level split (skb clone + DMA setup).
SEGMENT_SPLIT_NS = 600


@dataclass
class GsoBuffer:
    """Payload of a datagram that is really a GSO super-buffer.

    :param segments: the wire datagrams to emit, in order.
    :param pacing_rate_Bps: paced-GSO patch — bytes/second at which the
        kernel should space the segments; None means stock GSO (back-to-back).
    """

    segments: List[Datagram] = field(default_factory=list)
    pacing_rate_Bps: Optional[int] = None

    @property
    def total_payload(self) -> int:
        return sum(seg.payload_size for seg in self.segments)

    def __len__(self) -> int:
        return len(self.segments)


class GsoSegmenter:
    """Kernel stage between the qdisc and the NIC that splits GSO buffers.

    Plain datagrams pass straight through. GSO buffers are split; stock GSO
    emits segments back-to-back (separated only by the split cost), while
    paced GSO spaces segment *starts* by ``segment_bytes / pacing_rate``.
    """

    def __init__(self, sim: Simulator, sink: Optional[PacketSink] = None):
        self.sim = sim
        self.sink = sink
        self.buffers_split = 0
        self.segments_emitted = 0
        self.paced_buffers = 0
        # Packets of one device queue never reorder: a later arrival must not
        # overtake the segments of a buffer still being spread out.
        self._busy_until = 0

    def receive(self, dgram: Datagram) -> None:
        payload = dgram.payload
        sim = self.sim
        now = sim.now
        if not isinstance(payload, GsoBuffer):
            if self._busy_until <= now:
                # Nothing of ours is still being spread out: a same-instant hop.
                self._busy_until = now
                sim.call_soon(self._emit, dgram)
            else:
                sim.schedule_at(self._busy_until, self._emit, dgram)
            return
        start = max(now, self._busy_until)
        self.buffers_split += 1
        rate = payload.pacing_rate_Bps
        at = start
        if rate:
            self.paced_buffers += 1
            for seg in payload.segments:
                sim.schedule_at(at, self._emit, seg)
                at += seg.payload_size * SEC // rate
        else:
            for seg in payload.segments:
                sim.schedule_at(at, self._emit, seg)
                at += SEGMENT_SPLIT_NS
        self._busy_until = at

    def _emit(self, dgram: Datagram) -> None:
        self.segments_emitted += 1
        if self.sink is not None:
            self.sink.receive(dgram)
