"""Flow demultiplexer: routes datagrams to per-flow sinks by destination port.

Used by a run of more than one flow, where the connections share the emulated
bottleneck: the bottleneck's single egress fans out to each receiver socket,
and the shared reverse path fans out to each sender. An unrouted datagram is
a wiring bug (a flow whose port was never registered), so the demux counts
them and the multi-flow conservation validator gates results on the count
staying zero.
"""

from __future__ import annotations

from typing import Dict

from repro.net.packet import Datagram, PacketSink


class PortDemux:
    """Routes by ``flow[3]`` (destination port)."""

    def __init__(self, routes: Dict[int, PacketSink] | None = None):
        self.routes: Dict[int, PacketSink] = dict(routes or {})
        self.unrouted = 0

    def add_route(self, port: int, sink: PacketSink) -> None:
        self.routes[port] = sink

    def receive(self, dgram: Datagram) -> None:
        sink = self.routes.get(dgram.flow[3])
        if sink is None:
            self.unrouted += 1
            return
        sink.receive(dgram)


class DrainSink:
    """Terminal sink that counts what it absorbs: a departed flow's demux
    routes, so stragglers in flight at teardown count as ``drained``, not as
    ``unrouted`` (which the conservation validator reserves for wiring bugs),
    and the egress of a socket wired to nothing."""

    def __init__(self) -> None:
        self.drained = 0

    def receive(self, dgram: Datagram) -> None:
        self.drained += 1
