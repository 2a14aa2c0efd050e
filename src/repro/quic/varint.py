"""QUIC variable-length integers (RFC 9000 §16).

The two most significant bits of the first byte select the encoding length
(1, 2, 4 or 8 bytes); the remaining bits carry the value big-endian.
"""

from __future__ import annotations

from repro.errors import EncodingError

MAX_VARINT = (1 << 62) - 1


def varint_len(value: int) -> int:
    """Encoded length in bytes of ``value``."""
    if value < 0:
        raise EncodingError(f"varint cannot encode negative value {value}")
    if value <= 0x3F:
        return 1
    if value <= 0x3FFF:
        return 2
    if value <= 0x3FFF_FFFF:
        return 4
    if value <= MAX_VARINT:
        return 8
    raise EncodingError(f"value {value} exceeds varint maximum {MAX_VARINT}")


def encode_varint(value: int) -> bytes:
    """Encode ``value`` as a QUIC varint."""
    if value < 0:
        raise EncodingError(f"varint cannot encode negative value {value}")
    if value <= 0x3F:
        return value.to_bytes(1, "big")
    if value <= 0x3FFF:
        return (value | (0b01 << 14)).to_bytes(2, "big")
    if value <= 0x3FFF_FFFF:
        return (value | (0b10 << 30)).to_bytes(4, "big")
    if value <= MAX_VARINT:
        return (value | (0b11 << 62)).to_bytes(8, "big")
    raise EncodingError(f"value {value} exceeds varint maximum {MAX_VARINT}")


def decode_varint(data: memoryview | bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint at ``offset``; returns ``(value, new_offset)``."""
    if offset >= len(data):
        raise EncodingError("varint truncated: empty input")
    first = data[offset]
    prefix = first >> 6
    if prefix == 0:
        return first, offset + 1
    length = 1 << prefix
    if offset + length > len(data):
        raise EncodingError(f"varint truncated: need {length} bytes at offset {offset}")
    if prefix == 1:
        return ((first & 0x3F) << 8) | data[offset + 1], offset + 2
    if prefix == 2:
        return (
            ((first & 0x3F) << 24)
            | (data[offset + 1] << 16)
            | (data[offset + 2] << 8)
            | data[offset + 3]
        ), offset + 4
    value = first & 0x3F
    for i in range(1, 8):
        value = (value << 8) | data[offset + i]
    return value, offset + 8

