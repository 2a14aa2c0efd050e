"""TCP segment model.

Sizes are chosen so wire footprints are comparable with the QUIC stacks: the
MSS carries a TLS record chunk, and ``payload_size`` on the datagram counts
TCP header + TLS framing + payload, so serialization delays match reality.
"""

from __future__ import annotations

from typing import Tuple

#: Application bytes per full segment (1500 MTU - IP/TCP headers - TLS framing).
TCP_MSS = 1380
#: TCP header (20 + 12 options) + TLS record overhead, charged on the wire
#: beyond the UDP-equivalent header already counted by Datagram overhead.
TCP_WIRE_EXTRA = 24 + 29

#: Maximum SACK blocks per segment (as on the wire with timestamps enabled).
MAX_SACK_BLOCKS = 3


class TcpSegment:
    """One TCP segment (data or pure ACK); built once, never modified.

    ``seq`` is the first application byte carried, ``length`` the application
    bytes carried (0 for a pure ACK), ``ack_no`` the cumulative
    acknowledgment. ``sack_blocks`` holds up to ``MAX_SACK_BLOCKS``
    ``[lo, hi)`` byte ranges received above ``ack_no``, highest first
    (RFC 2018).
    """

    __slots__ = ("seq", "length", "ack_no", "fin", "sack_blocks", "wire_payload", "is_data")

    def __init__(
        self,
        seq: int,
        length: int,
        ack_no: int,
        fin: bool = False,
        sack_blocks: Tuple[Tuple[int, int], ...] = (),
    ):
        self.seq = seq
        self.length = length
        self.ack_no = ack_no
        self.fin = fin
        self.sack_blocks = sack_blocks
        #: The datagram payload the segment occupies on the wire.
        self.wire_payload = length + TCP_WIRE_EXTRA
        self.is_data = length > 0 or fin
