"""Packet-train detection with the paper's 0.1 ms threshold."""

from hypothesis import given, strategies as st

from repro.metrics.trains import (
    TRAIN_GAP_THRESHOLD_NS,
    fraction_of_packets_in_trains_leq,
    packet_trains,
    packets_by_train_length,
)
from repro.net.tap import CaptureColumns, CaptureRecord
from repro.units import us


def recs(times):
    return CaptureColumns.from_records(
        CaptureRecord(
            time_ns=t, wire_size=1294, payload_size=1252,
            flow=("a", 1, "b", 2), packet_number=i, dgram_id=i, gso_id=None,
        )
        for i, t in enumerate(times)
    )


def test_default_threshold_is_100us():
    assert TRAIN_GAP_THRESHOLD_NS == us(100)


def test_all_spread_packets_are_singletons():
    r = recs([0, us(500), us(1000), us(1500)])
    assert packet_trains(r) == [1, 1, 1, 1]


def test_burst_forms_one_train():
    r = recs([0, us(10), us(20), us(30)])
    assert packet_trains(r) == [4]


def test_mixed_pattern():
    r = recs([0, us(10), us(500), us(510), us(520), us(2000)])
    assert packet_trains(r) == [2, 3, 1]


def test_boundary_gap_exactly_threshold_joins():
    r = recs([0, TRAIN_GAP_THRESHOLD_NS])
    assert packet_trains(r) == [2]


def test_empty_input():
    assert packet_trains(recs([])) == []
    assert packets_by_train_length(recs([])) == {}
    assert fraction_of_packets_in_trains_leq(recs([]), 5) == 0.0


def test_packets_by_train_length_weights_by_packets():
    r = recs([0, us(10), us(500), us(510), us(520), us(2000)])
    assert packets_by_train_length(r) == {2: 2, 3: 3, 1: 1}


def test_fraction_leq_weighted_by_packets():
    # One 16-burst and 4 singles: 4/20 of packets are in trains <= 5.
    times = [i * us(10) for i in range(16)] + [us(10_000) * k for k in range(1, 5)]
    r = recs(times)
    assert fraction_of_packets_in_trains_leq(r, 5) == 4 / 20


@given(st.lists(st.integers(min_value=1, max_value=1_000_000), min_size=1, max_size=200))
def test_train_lengths_partition_all_packets(gaps):
    times = [0]
    for g in gaps:
        times.append(times[-1] + g)
    r = recs(times)
    trains = packet_trains(r)
    assert sum(trains) == len(r)
    dist = packets_by_train_length(r)
    assert sum(dist.values()) == len(r)
    assert fraction_of_packets_in_trains_leq(r, max(trains)) == 1.0
