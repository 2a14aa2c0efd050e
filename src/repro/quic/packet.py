"""QUIC packet model: a short- or long-header packet carrying frames.

Wire layout (simplified but size-accurate):

* long header (Initial / Handshake): flags(1) + version(4) + dcid_len(1) +
  dcid(8) + scid_len(1) + scid(8) + length(varint) + packet number(4) +
  payload + AEAD tag(16);
* short header (1-RTT): flags(1) + dcid(8) + packet number(4) + payload +
  AEAD tag(16).

Encryption is modelled by the size-preserving AEAD tag: payload bytes travel
in the clear inside the simulator, but every packet pays the real 16-byte
expansion, so goodput arithmetic matches a real stack.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Final, List, Optional

from repro.errors import EncodingError
from repro.quic.frames import Frame, parse_frames
from repro.quic.varint import decode_varint, encode_varint

AEAD_TAG_LEN: Final[int] = 16
PACKET_NUMBER_LEN: Final[int] = 4
CONNECTION_ID_LEN: Final[int] = 8
QUIC_VERSION: Final[int] = 0x00000001

#: Default max UDP payload (paper setups use ~1252-byte QUIC packets on a
#: 1500-byte MTU path with IPv4).
DEFAULT_MAX_UDP_PAYLOAD: Final[int] = 1252


class PacketType(enum.Enum):
    INITIAL = "initial"
    HANDSHAKE = "handshake"
    ONE_RTT = "1rtt"

    @property
    def long_header(self) -> bool:
        return self is not PacketType.ONE_RTT


_LONG_TYPE_BITS: Final[Dict[PacketType, int]] = {
    PacketType.INITIAL: 0x0, PacketType.HANDSHAKE: 0x2
}
_LONG_TYPE_FROM_BITS: Final[Dict[int, PacketType]] = {
    v: k for k, v in _LONG_TYPE_BITS.items()
}


_SHORT_HEADER_OVERHEAD: Final[int] = (
    1 + CONNECTION_ID_LEN + PACKET_NUMBER_LEN + AEAD_TAG_LEN
)


def short_header_overhead() -> int:
    """Framing bytes of a 1-RTT packet beyond its frames."""
    return _SHORT_HEADER_OVERHEAD


def packet_len(packet_type: PacketType, payload_len: int) -> int:
    """Wire size of a packet whose frames encode to ``payload_len`` bytes."""
    if packet_type is PacketType.ONE_RTT:
        return payload_len + _SHORT_HEADER_OVERHEAD
    return payload_len + long_header_overhead(payload_len)


def long_header_overhead(payload_len: int) -> int:
    length_field = len(encode_varint(payload_len + PACKET_NUMBER_LEN + AEAD_TAG_LEN))
    return 1 + 4 + 1 + CONNECTION_ID_LEN + 1 + CONNECTION_ID_LEN + length_field + (
        PACKET_NUMBER_LEN + AEAD_TAG_LEN
    )


_ZERO_CID: Final[bytes] = b"\x00" * CONNECTION_ID_LEN


@dataclass(slots=True)
class QuicPacket:
    """A parsed or to-be-encoded QUIC packet.

    ``ack_eliciting`` and ``encoded_len`` are facts of the frame list, fixed
    at construction. The connection passes what it tallied while assembling
    the packet; everyone else (the parser, tests) leaves them out and they
    are derived from ``frames`` once.
    """

    packet_type: PacketType
    packet_number: int
    frames: List[Frame] = field(default_factory=list)
    dcid: bytes = _ZERO_CID
    scid: bytes = _ZERO_CID
    ack_eliciting: Optional[bool] = field(default=None, compare=False, kw_only=True)
    encoded_len: Optional[int] = field(default=None, compare=False, kw_only=True)

    def __post_init__(self) -> None:
        if self.ack_eliciting is None:
            self.ack_eliciting = any(f.ack_eliciting for f in self.frames)
        if self.encoded_len is None:
            self.encoded_len = packet_len(
                self.packet_type, sum(f.encoded_len for f in self.frames)
            )

    def payload_bytes(self) -> bytes:
        return b"".join(f.encode() for f in self.frames)

    def encode(self) -> bytes:
        payload = self.payload_bytes()
        if not payload:
            raise EncodingError("QUIC packet must carry at least one frame")
        pn = self.packet_number.to_bytes(PACKET_NUMBER_LEN, "big")
        tag = bytes(AEAD_TAG_LEN)
        if self.packet_type.long_header:
            flags = 0xC0 | (_LONG_TYPE_BITS[self.packet_type] << 4) | (PACKET_NUMBER_LEN - 1)
            out = bytearray([flags])
            out += QUIC_VERSION.to_bytes(4, "big")
            out += bytes([len(self.dcid)]) + self.dcid
            out += bytes([len(self.scid)]) + self.scid
            out += encode_varint(len(payload) + PACKET_NUMBER_LEN + AEAD_TAG_LEN)
            out += pn + payload + tag
            return bytes(out)
        flags = 0x40 | (PACKET_NUMBER_LEN - 1)
        return bytes([flags]) + self.dcid + pn + payload + tag

    @classmethod
    def decode(cls, data: bytes | memoryview) -> "QuicPacket":
        view = memoryview(data)
        if len(view) < 1 + PACKET_NUMBER_LEN + AEAD_TAG_LEN:
            raise EncodingError(f"packet too short: {len(view)} bytes")

        def need(end: int) -> None:
            if end > len(view):
                raise EncodingError(f"packet truncated: need {end} of {len(view)} bytes")

        flags = view[0]
        if flags & 0x80:  # long header
            ptype = _LONG_TYPE_FROM_BITS.get((flags >> 4) & 0x3)
            if ptype is None:
                raise EncodingError(f"unsupported long header type in flags 0x{flags:02x}")
            i = 1 + 4
            need(i + 1)
            dcid_len = view[i]
            need(i + 1 + dcid_len)
            dcid = bytes(view[i + 1 : i + 1 + dcid_len])
            i += 1 + dcid_len
            need(i + 1)
            scid_len = view[i]
            need(i + 1 + scid_len)
            scid = bytes(view[i + 1 : i + 1 + scid_len])
            i += 1 + scid_len
            length, i = decode_varint(view, i)
            if length < PACKET_NUMBER_LEN + AEAD_TAG_LEN:
                raise EncodingError(f"long header length field too small: {length}")
            need(i + length)
            pn = int.from_bytes(view[i : i + PACKET_NUMBER_LEN], "big")
            i += PACKET_NUMBER_LEN
            payload_len = length - PACKET_NUMBER_LEN - AEAD_TAG_LEN
            payload = view[i : i + payload_len]
            return cls(ptype, pn, parse_frames(payload), dcid=dcid, scid=scid)
        dcid = bytes(view[1 : 1 + CONNECTION_ID_LEN])
        i = 1 + CONNECTION_ID_LEN
        need(i + PACKET_NUMBER_LEN + AEAD_TAG_LEN)
        pn = int.from_bytes(view[i : i + PACKET_NUMBER_LEN], "big")
        i += PACKET_NUMBER_LEN
        payload = view[i : len(view) - AEAD_TAG_LEN]
        return cls(PacketType.ONE_RTT, pn, parse_frames(payload), dcid=dcid)
