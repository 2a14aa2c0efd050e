"""Randomized round-trip properties for the wire-format building blocks.

Complements ``test_fuzz.py`` (parsers never crash on arbitrary bytes) with
the dual property: everything the encoders produce must decode back to an
equal value, and every *strict prefix* of an encoding must be rejected with
:class:`EncodingError` rather than silently mis-parse. Corpora come from a
seeded ``random.Random`` so failures reproduce exactly.
"""

import random

import pytest

from repro.errors import EncodingError
from repro.quic.frames import (
    AckFrame,
    ConnectionCloseFrame,
    CryptoFrame,
    MaxDataFrame,
    MaxStreamDataFrame,
    PaddingFrame,
    PingFrame,
    StreamFrame,
    parse_frames,
)
from repro.quic.ranges import RangeSet
from repro.quic.varint import MAX_VARINT, decode_varint, encode_varint, varint_len

RNG_SEED = 20240913

#: Encoding-class boundaries (RFC 9000 §16): last value of each length and
#: the first value of the next.
VARINT_BOUNDARIES = [
    0, 1, 0x3F, 0x40, 0x3FFF, 0x4000, 0x3FFF_FFFF, 0x4000_0000, MAX_VARINT - 1, MAX_VARINT
]


def _random_varints(rng, count=500):
    values = list(VARINT_BOUNDARIES)
    for _ in range(count):
        # Uniform over bit-lengths, not over values, so every encoding class
        # is exercised instead of almost always drawing 8-byte varints.
        bits = rng.randrange(0, 63)
        values.append(rng.randrange(0, 1 << bits) if bits else 0)
    return values


class TestVarintRoundTrip:
    def test_encode_decode_identity(self):
        rng = random.Random(RNG_SEED)
        for value in _random_varints(rng):
            encoded = encode_varint(value)
            assert len(encoded) == varint_len(value)
            decoded, end = decode_varint(encoded)
            assert decoded == value
            assert end == len(encoded)

    def test_identity_at_nonzero_offset(self):
        rng = random.Random(RNG_SEED + 1)
        for value in _random_varints(rng, count=100):
            prefix = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 8)))
            decoded, end = decode_varint(prefix + encode_varint(value), len(prefix))
            assert decoded == value

    def test_every_truncation_rejected(self):
        rng = random.Random(RNG_SEED + 2)
        for value in _random_varints(rng, count=100):
            encoded = encode_varint(value)
            for cut in range(len(encoded)):
                with pytest.raises(EncodingError):
                    decode_varint(encoded[:cut])

    def test_out_of_range_values_rejected(self):
        for value in (-1, MAX_VARINT + 1, 1 << 62, 1 << 70):
            with pytest.raises(EncodingError):
                encode_varint(value)


class TestRangeSetModel:
    """RangeSet vs. the obvious model: a plain set of covered integers."""

    def _build(self, rng, ops=60, universe=200):
        rs, model = RangeSet(), set()
        for _ in range(ops):
            start = rng.randrange(universe)
            end = start + rng.randrange(0, 12)
            added = rs.add(start, end)
            before = len(model)
            model.update(range(start, end))
            assert added == len(model) - before
        return rs, model

    def test_matches_model_set(self):
        for seed in range(10):
            rng = random.Random(RNG_SEED + seed)
            rs, model = self._build(rng)
            assert rs.total == len(model)
            covered = {v for lo, hi in rs for v in range(lo, hi)}
            assert covered == model
            for v in rng.sample(range(220), 50):
                assert rs.contains(v) == (v in model)

    def test_ranges_stay_disjoint_and_sorted(self):
        rng = random.Random(RNG_SEED + 20)
        rs, _ = self._build(rng, ops=200)
        spans = list(rs)
        assert all(lo < hi for lo, hi in spans)
        # Strictly separated: merged ranges never touch.
        assert all(a[1] < b[0] for a, b in zip(spans, spans[1:]))

    def test_covers_and_missing_within_match_model(self):
        rng = random.Random(RNG_SEED + 21)
        rs, model = self._build(rng)
        for _ in range(100):
            start = rng.randrange(220)
            end = start + rng.randrange(0, 30)
            want = all(v in model for v in range(start, end))
            assert rs.covers(start, end) == want
            gaps = rs.missing_within(start, end)
            missing = {v for lo, hi in gaps for v in range(lo, hi)}
            assert missing == {v for v in range(start, end) if v not in model}
            assert all(lo < hi for lo, hi in gaps)

    def test_first_gap_matches_model(self):
        rng = random.Random(RNG_SEED + 22)
        rs, model = self._build(rng)
        for start in rng.sample(range(220), 40):
            pos = start
            while pos in model:
                pos += 1
            assert rs.first_gap_from(start) == pos


def _random_ack(rng):
    space = rng.randrange(30, 400)
    pns = sorted(rng.sample(range(space), rng.randrange(1, min(40, space))))
    ranges = []
    start = prev = pns[0]
    for pn in pns[1:]:
        if pn == prev + 1:
            prev = pn
        else:
            ranges.append((start, prev))
            start = prev = pn
    ranges.append((start, prev))
    ranges.reverse()  # descending by hi, as the frame requires
    ecn = None
    if rng.random() < 0.5:
        ecn = (rng.randrange(1000), rng.randrange(1000), rng.randrange(100))
    # ACK delay travels in 2**ACK_DELAY_EXPONENT µs units; stay on-grid so
    # the round trip is exact.
    return AckFrame(ranges[0][1], rng.randrange(0, 10_000) << 3, tuple(ranges), ecn)


def _random_frame(rng):
    kind = rng.randrange(7)
    data = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 60)))
    if kind == 0:
        return PingFrame()
    if kind == 1:
        return _random_ack(rng)
    if kind == 2:
        return CryptoFrame(rng.randrange(1 << 20), data)
    if kind == 3:
        return StreamFrame(
            stream_id=rng.randrange(1 << 16),
            offset=rng.choice([0, rng.randrange(1, 1 << 30)]),
            data=data,
            fin=rng.random() < 0.3,
        )
    if kind == 4:
        return MaxDataFrame(rng.randrange(1 << 40))
    if kind == 5:
        return MaxStreamDataFrame(rng.randrange(1 << 16), rng.randrange(1 << 40))
    return PaddingFrame(rng.randrange(1, 20))


class TestFrameRoundTrip:
    def test_single_frames_round_trip(self):
        rng = random.Random(RNG_SEED + 30)
        for _ in range(300):
            frame = _random_frame(rng)
            encoded = frame.encode()
            assert len(encoded) == frame.encoded_len
            assert parse_frames(encoded) == [frame]

    def test_frame_sequences_round_trip(self):
        rng = random.Random(RNG_SEED + 31)
        for _ in range(100):
            frames = []
            for _ in range(rng.randrange(1, 8)):
                frame = _random_frame(rng)
                # Adjacent PADDING runs coalesce on parse by design; keep
                # them apart so list equality is exact.
                if frames and isinstance(frame, PaddingFrame) and isinstance(frames[-1], PaddingFrame):
                    continue
                frames.append(frame)
            payload = b"".join(f.encode() for f in frames)
            assert parse_frames(payload) == frames

    def test_connection_close_round_trips(self):
        rng = random.Random(RNG_SEED + 32)
        for _ in range(50):
            frame = ConnectionCloseFrame(
                error_code=rng.randrange(1 << 20),
                reason=bytes(rng.randrange(256) for _ in range(rng.randrange(0, 30))),
            )
            assert parse_frames(frame.encode()) == [frame]

    def test_every_truncation_rejected(self):
        rng = random.Random(RNG_SEED + 33)
        for _ in range(120):
            frame = _random_frame(rng)
            if isinstance(frame, (PingFrame, PaddingFrame)):
                continue  # 1-byte/run encodings: every prefix is legal
            encoded = frame.encode()
            for cut in range(1, len(encoded)):
                with pytest.raises(EncodingError):
                    parse_frames(encoded[:cut])

    def test_ack_decode_reconstructs_exact_ranges(self):
        rng = random.Random(RNG_SEED + 34)
        for _ in range(200):
            ack = _random_ack(rng)
            (decoded,) = parse_frames(ack.encode())
            assert decoded.ranges == ack.ranges
            assert decoded.acked_packet_numbers() == ack.acked_packet_numbers()
            assert decoded.ecn_counts == ack.ecn_counts
