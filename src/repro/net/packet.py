"""The wire unit: a UDP (or TCP-segment-carrying) datagram.

A :class:`Datagram` is what crosses links, qdiscs and NICs. Its ``payload`` is
opaque at this layer — the QUIC or TCP stack attaches whatever object it wants
delivered, and the wire layers only care about sizes and metadata (flow hash,
SO_TXTIME timestamp, GSO grouping).
"""

from __future__ import annotations

import itertools
from typing import Any, Final, Optional, Protocol, Tuple

#: Ethernet + IPv4 + UDP header bytes added to a UDP payload on the wire.
ETHERNET_OVERHEAD: Final[int] = 14 + 20 + 8

#: Extra per-frame wire framing that consumes link time but is not captured
#: in the IP length: preamble (8) + FCS (4) + inter-frame gap (12).
WIRE_FRAMING: Final[int] = 24

_dgram_ids = itertools.count()


def reset_dgram_ids() -> None:
    """Restart the datagram id sequence.

    Ids come from a process-wide counter, so without a reset they depend on
    how many datagrams the process created *before* an experiment — a prior
    run in the same interpreter would shift every ``dgram_id`` (and the
    capture records built from them), breaking bit-identical comparisons
    between serial, parallel, and cached executions. Each experiment resets
    the sequence at construction so ids are a pure function of the run.
    """
    global _dgram_ids
    _dgram_ids = itertools.count()


FlowTuple = Tuple[str, int, str, int]


class Datagram:
    """One UDP datagram traveling through the simulated network.

    :param flow: (src addr, src port, dst addr, dst port); used by FQ hashing.
    :param payload_size: UDP payload length in bytes (never reassigned).
    :param payload: opaque object for the receiving stack.
    :param txtime_ns: SCM_TXTIME timestamp, if the sender set SO_TXTIME.
    :param expected_send_ns: the sender's intended departure time (logged by
        the server application for the Section 4.4 precision metric).
    :param gso_id: identifier grouping segments split from one GSO buffer.
    :param packet_number: QUIC packet number (or TCP seq) for trace matching.

    Construction draws ``dgram_id`` (so build datagrams in send order) and
    fixes ``wire_size``, the bytes a capture counts (payload + Ethernet/IP/UDP
    headers), and ``serialized_size``, the bytes of link time (+ preamble/FCS/IFG).
    """

    __slots__ = (
        "flow", "payload_size", "payload", "txtime_ns", "expected_send_ns",
        "gso_id", "packet_number", "ecn", "dgram_id", "created_ns",
        "wire_size", "serialized_size",
    )

    def __init__(
        self,
        flow: FlowTuple,
        payload_size: int,
        payload: Any = None,
        txtime_ns: Optional[int] = None,
        expected_send_ns: Optional[int] = None,
        gso_id: Optional[int] = None,
        packet_number: Optional[int] = None,
        ecn: int = 0,
        created_ns: Optional[int] = None,
    ):
        self.flow = flow
        self.payload_size = payload_size
        self.payload = payload
        self.txtime_ns = txtime_ns
        self.expected_send_ns = expected_send_ns
        self.gso_id = gso_id
        self.packet_number = packet_number
        self.ecn = ecn
        self.dgram_id = next(_dgram_ids)
        self.created_ns = created_ns
        self.wire_size = payload_size + ETHERNET_OVERHEAD
        self.serialized_size = payload_size + (ETHERNET_OVERHEAD + WIRE_FRAMING)

    def copy(self) -> "Datagram":
        """A second object for the same wire packet (a duplicate on the
        path): every field equal, ``dgram_id`` included — no id is drawn."""
        dup = Datagram.__new__(Datagram)
        for name in Datagram.__slots__:
            setattr(dup, name, getattr(self, name))
        return dup

    def reply_flow(self) -> FlowTuple:
        src_addr, src_port, dst_addr, dst_port = self.flow
        return (dst_addr, dst_port, src_addr, src_port)

    def __repr__(self) -> str:
        return (
            f"<Datagram #{self.dgram_id} {self.flow[0]}:{self.flow[1]}->"
            f"{self.flow[2]}:{self.flow[3]} {self.payload_size}B"
            f"{'' if self.packet_number is None else f' pn={self.packet_number}'}>"
        )


class PacketSink(Protocol):
    """Anything that can accept a datagram (link, NIC, qdisc, socket, host)."""

    def receive(self, dgram: Datagram) -> None:  # pragma: no cover - protocol
        ...
