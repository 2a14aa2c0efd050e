"""QUIC frames (RFC 9000 §19) — the subset the workload needs.

Each frame knows its wire encoding; ``parse_frames`` walks a packet payload.
ACK delay is encoded in units of ``2**ACK_DELAY_EXPONENT`` microseconds, as
on the wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Final, List, Optional, Sequence, Tuple

from repro.errors import EncodingError
from repro.quic.varint import decode_varint, encode_varint, varint_len

ACK_DELAY_EXPONENT: Final[int] = 3  # default per RFC 9000

TYPE_PADDING: Final[int] = 0x00
TYPE_PING: Final[int] = 0x01
TYPE_ACK: Final[int] = 0x02
TYPE_ACK_ECN: Final[int] = 0x03
TYPE_CRYPTO: Final[int] = 0x06
TYPE_STREAM_BASE: Final[int] = 0x08  # 0x08..0x0f with OFF/LEN/FIN bits
TYPE_MAX_DATA: Final[int] = 0x10
TYPE_MAX_STREAM_DATA: Final[int] = 0x11
TYPE_DATA_BLOCKED: Final[int] = 0x14
TYPE_STREAM_DATA_BLOCKED: Final[int] = 0x15
TYPE_CONNECTION_CLOSE: Final[int] = 0x1C
TYPE_HANDSHAKE_DONE: Final[int] = 0x1E


class Frame:
    """Base frame."""

    __slots__ = ()

    #: Frames that count as ack-eliciting (everything except ACK/PADDING/CLOSE).
    ack_eliciting: bool = True

    def encode(self) -> bytes:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def encoded_len(self) -> int:
        return len(self.encode())


@dataclass(frozen=True)
class PaddingFrame(Frame):
    length: int = 1
    ack_eliciting = False

    def encode(self) -> bytes:
        return bytes(self.length)

    @property
    def encoded_len(self) -> int:
        return self.length


@dataclass(frozen=True)
class PingFrame(Frame):
    def encode(self) -> bytes:
        return bytes([TYPE_PING])

    @property
    def encoded_len(self) -> int:
        return 1


@dataclass(frozen=True)
class AckFrame(Frame):
    """ACK with ranges, descending: ``ranges[0]`` contains ``largest``.

    When ``ecn_counts`` is set (cumulative ECT(0), ECT(1), ECN-CE packet
    counts), the frame encodes as ACK_ECN (type 0x03, RFC 9000 §19.3.2).
    """

    largest: int
    ack_delay_us: int
    ranges: Tuple[Tuple[int, int], ...]  # (lo, hi) inclusive, descending by hi
    ecn_counts: Optional[Tuple[int, int, int]] = None
    ack_eliciting = False

    def __post_init__(self) -> None:
        if not self.ranges:
            raise EncodingError("ACK frame needs at least one range")
        if self.ranges[0][1] != self.largest:
            raise EncodingError("largest acknowledged must top the first range")

    def encode(self) -> bytes:
        out = bytearray([TYPE_ACK_ECN if self.ecn_counts is not None else TYPE_ACK])
        out += encode_varint(self.largest)
        out += encode_varint(self.ack_delay_us >> ACK_DELAY_EXPONENT)
        out += encode_varint(len(self.ranges) - 1)
        first_lo, first_hi = self.ranges[0]
        out += encode_varint(first_hi - first_lo)
        prev_lo = first_lo
        for lo, hi in self.ranges[1:]:
            gap = prev_lo - hi - 2
            if gap < 0:
                raise EncodingError("ACK ranges must be descending and disjoint")
            out += encode_varint(gap)
            out += encode_varint(hi - lo)
            prev_lo = lo
        if self.ecn_counts is not None:
            for count in self.ecn_counts:
                out += encode_varint(count)
        return bytes(out)

    @property
    def encoded_len(self) -> int:
        first_lo, first_hi = self.ranges[0]
        n = (
            1
            + varint_len(self.largest)
            + varint_len(self.ack_delay_us >> ACK_DELAY_EXPONENT)
            + varint_len(len(self.ranges) - 1)
            + varint_len(first_hi - first_lo)
        )
        prev_lo = first_lo
        for lo, hi in self.ranges[1:]:
            # Gaps and range lengths are nearly always one-byte varints.
            gap = prev_lo - hi - 2
            n += 1 if 0 <= gap <= 0x3F else varint_len(gap)
            n += 1 if 0 <= hi - lo <= 0x3F else varint_len(hi - lo)
            prev_lo = lo
        if self.ecn_counts is not None:
            for count in self.ecn_counts:
                n += varint_len(count)
        return n

    def acked_packet_numbers(self) -> List[int]:
        """All packet numbers covered (test/diagnostic helper)."""
        numbers: List[int] = []
        for lo, hi in self.ranges:
            numbers.extend(range(lo, hi + 1))
        return numbers


@dataclass(frozen=True)
class CryptoFrame(Frame):
    offset: int
    data: bytes

    def encode(self) -> bytes:
        return (
            bytes([TYPE_CRYPTO])
            + encode_varint(self.offset)
            + encode_varint(len(self.data))
            + self.data
        )

    @property
    def encoded_len(self) -> int:
        return 1 + varint_len(self.offset) + varint_len(len(self.data)) + len(self.data)


class StreamFrame(Frame):
    """STREAM frame, always encoded with the LEN bit.

    ``data`` is the payload: the bytes themselves on a parsed frame, or just
    their count on a frame the sender assembles from a synthetic
    :class:`~repro.quic.stream.DataSource` — the receiver only ever measures
    the payload, so those zero bytes exist nowhere until :meth:`encode`
    writes them. ``length`` and ``encoded_len`` are fixed at construction.
    Frames are equal when they encode to the same bytes.
    """

    __slots__ = ("stream_id", "offset", "data", "fin", "length", "encoded_len")

    def __init__(self, stream_id: int, offset: int, data: "bytes | int", fin: bool = False):
        length = data if data.__class__ is int else len(data)
        self.stream_id = stream_id
        self.offset = offset
        self.data = data
        self.fin = fin
        self.length = length
        self.encoded_len = self.header_overhead(stream_id, offset, length) + length

    def payload(self) -> bytes:
        data = self.data
        return bytes(data) if data.__class__ is int else data

    def encode(self) -> bytes:
        flags = TYPE_STREAM_BASE | 0x02  # LEN always set
        if self.offset:
            flags |= 0x04
        if self.fin:
            flags |= 0x01
        out = bytearray([flags])
        out += encode_varint(self.stream_id)
        if self.offset:
            out += encode_varint(self.offset)
        out += encode_varint(self.length)
        out += self.payload()
        return bytes(out)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not StreamFrame:
            return NotImplemented
        return (
            self.stream_id == other.stream_id
            and self.offset == other.offset
            and self.fin == other.fin
            and self.length == other.length
            and self.payload() == other.payload()
        )

    def __repr__(self) -> str:
        return (
            f"StreamFrame(stream_id={self.stream_id}, offset={self.offset}, "
            f"length={self.length}, fin={self.fin})"
        )

    @staticmethod
    def header_overhead(stream_id: int, offset: int, data_len: int) -> int:
        """Bytes of framing for a STREAM frame with the given fields: the
        type byte plus the varint lengths of id, length and non-zero offset."""
        if stream_id < 0 or offset < 0 or data_len < 0 or (
            stream_id | offset | data_len
        ) > 0x3FFF_FFFF:
            # 8-byte varints, or a value no varint encodes (raises).
            n = 1 + varint_len(stream_id) + varint_len(data_len)
            return n + varint_len(offset) if offset else n
        n = 2 if stream_id <= 0x3F else 3 if stream_id <= 0x3FFF else 5
        n += 1 if data_len <= 0x3F else 2 if data_len <= 0x3FFF else 4
        if offset:
            n += 1 if offset <= 0x3F else 2 if offset <= 0x3FFF else 4
        return n


@dataclass(frozen=True)
class MaxDataFrame(Frame):
    max_data: int

    def encode(self) -> bytes:
        return bytes([TYPE_MAX_DATA]) + encode_varint(self.max_data)

    @property
    def encoded_len(self) -> int:
        return 1 + varint_len(self.max_data)


@dataclass(frozen=True)
class MaxStreamDataFrame(Frame):
    stream_id: int
    max_data: int

    def encode(self) -> bytes:
        return (
            bytes([TYPE_MAX_STREAM_DATA])
            + encode_varint(self.stream_id)
            + encode_varint(self.max_data)
        )

    @property
    def encoded_len(self) -> int:
        return 1 + varint_len(self.stream_id) + varint_len(self.max_data)


@dataclass(frozen=True)
class DataBlockedFrame(Frame):
    limit: int

    def encode(self) -> bytes:
        return bytes([TYPE_DATA_BLOCKED]) + encode_varint(self.limit)

    @property
    def encoded_len(self) -> int:
        return 1 + varint_len(self.limit)


@dataclass(frozen=True)
class StreamDataBlockedFrame(Frame):
    stream_id: int
    limit: int

    def encode(self) -> bytes:
        return (
            bytes([TYPE_STREAM_DATA_BLOCKED])
            + encode_varint(self.stream_id)
            + encode_varint(self.limit)
        )

    @property
    def encoded_len(self) -> int:
        return 1 + varint_len(self.stream_id) + varint_len(self.limit)


@dataclass(frozen=True)
class ConnectionCloseFrame(Frame):
    error_code: int = 0
    reason: bytes = b""
    ack_eliciting = False

    def encode(self) -> bytes:
        return (
            bytes([TYPE_CONNECTION_CLOSE])
            + encode_varint(self.error_code)
            + encode_varint(0)  # frame type that caused the error
            + encode_varint(len(self.reason))
            + self.reason
        )

    @property
    def encoded_len(self) -> int:
        return (
            1
            + varint_len(self.error_code)
            + 1
            + varint_len(len(self.reason))
            + len(self.reason)
        )


@dataclass(frozen=True)
class HandshakeDoneFrame(Frame):
    def encode(self) -> bytes:
        return bytes([TYPE_HANDSHAKE_DONE])

    @property
    def encoded_len(self) -> int:
        return 1


def parse_frames(data: bytes | memoryview) -> List[Frame]:
    """Parse a packet payload into frames."""
    view = memoryview(data)
    frames: List[Frame] = []
    i = 0
    n = len(view)
    while i < n:
        ftype = view[i]
        if ftype == TYPE_PADDING:
            start = i
            while i < n and view[i] == TYPE_PADDING:
                i += 1
            frames.append(PaddingFrame(i - start))
        elif ftype == TYPE_PING:
            frames.append(PingFrame())
            i += 1
        elif ftype in (TYPE_ACK, TYPE_ACK_ECN):
            frame, i = _decode_ack(view, i + 1, with_ecn=(ftype == TYPE_ACK_ECN))
            frames.append(frame)
        elif ftype == TYPE_CRYPTO:
            offset, i = decode_varint(view, i + 1)
            length, i = decode_varint(view, i)
            if i + length > n:
                raise EncodingError("CRYPTO frame data extends past the packet")
            frames.append(CryptoFrame(offset, bytes(view[i : i + length])))
            i += length
        elif TYPE_STREAM_BASE <= ftype <= TYPE_STREAM_BASE | 0x07:
            has_off = bool(ftype & 0x04)
            has_len = bool(ftype & 0x02)
            fin = bool(ftype & 0x01)
            i += 1
            stream_id, i = decode_varint(view, i)
            offset = 0
            if has_off:
                offset, i = decode_varint(view, i)
            if has_len:
                length, i = decode_varint(view, i)
                if i + length > n:
                    raise EncodingError("STREAM frame data extends past the packet")
            else:
                length = n - i
            frames.append(StreamFrame(stream_id, offset, bytes(view[i : i + length]), fin))
            i += length
        elif ftype == TYPE_MAX_DATA:
            value, i = decode_varint(view, i + 1)
            frames.append(MaxDataFrame(value))
        elif ftype == TYPE_MAX_STREAM_DATA:
            sid, i = decode_varint(view, i + 1)
            value, i = decode_varint(view, i)
            frames.append(MaxStreamDataFrame(sid, value))
        elif ftype == TYPE_DATA_BLOCKED:
            value, i = decode_varint(view, i + 1)
            frames.append(DataBlockedFrame(value))
        elif ftype == TYPE_STREAM_DATA_BLOCKED:
            sid, i = decode_varint(view, i + 1)
            value, i = decode_varint(view, i)
            frames.append(StreamDataBlockedFrame(sid, value))
        elif ftype == TYPE_CONNECTION_CLOSE:
            code, i = decode_varint(view, i + 1)
            _frame_type, i = decode_varint(view, i)
            rlen, i = decode_varint(view, i)
            if i + rlen > n:
                raise EncodingError("CONNECTION_CLOSE reason extends past the packet")
            frames.append(ConnectionCloseFrame(code, bytes(view[i : i + rlen])))
            i += rlen
        elif ftype == TYPE_HANDSHAKE_DONE:
            frames.append(HandshakeDoneFrame())
            i += 1
        else:
            raise EncodingError(f"unknown frame type 0x{ftype:02x} at offset {i}")
    return frames


def _decode_ack(view: memoryview, i: int, with_ecn: bool = False) -> tuple[AckFrame, int]:
    largest, i = decode_varint(view, i)
    delay_raw, i = decode_varint(view, i)
    range_count, i = decode_varint(view, i)
    first_range, i = decode_varint(view, i)
    ranges = [(largest - first_range, largest)]
    prev_lo = largest - first_range
    for _ in range(range_count):
        gap, i = decode_varint(view, i)
        length, i = decode_varint(view, i)
        hi = prev_lo - gap - 2
        lo = hi - length
        if lo < 0:
            raise EncodingError("ACK range extends below packet number 0")
        ranges.append((lo, hi))
        prev_lo = lo
    ecn_counts = None
    if with_ecn:
        ect0, i = decode_varint(view, i)
        ect1, i = decode_varint(view, i)
        ce, i = decode_varint(view, i)
        ecn_counts = (ect0, ect1, ce)
    return AckFrame(largest, delay_raw << ACK_DELAY_EXPONENT, tuple(ranges), ecn_counts), i
