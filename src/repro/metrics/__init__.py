"""Evaluation metrics: inter-packet gaps, packet trains, goodput, drops,
pacing precision, and aggregation/reporting helpers."""

from repro.metrics.gaps import Distribution, inter_packet_gaps, fraction_leq
from repro.metrics.trains import (
    packet_trains,
    packets_by_train_length,
    fraction_of_packets_in_trains_leq,
    TRAIN_GAP_THRESHOLD_NS,
)
from repro.metrics.goodput import goodput_mbps
from repro.metrics.precision import pacing_precision_ns, match_expected_actual
from repro.metrics.stats import Summary, summarize
from repro.metrics.report import render_table, render_cdf, render_histogram

__all__ = [
    "Distribution",
    "inter_packet_gaps",
    "fraction_leq",
    "packet_trains",
    "packets_by_train_length",
    "fraction_of_packets_in_trains_leq",
    "TRAIN_GAP_THRESHOLD_NS",
    "goodput_mbps",
    "pacing_precision_ns",
    "match_expected_actual",
    "Summary",
    "summarize",
    "render_table",
    "render_cdf",
    "render_histogram",
]
