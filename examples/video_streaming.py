#!/usr/bin/env python3
"""Video streaming: why pacing matters for segment delivery.

The paper motivates pacing with applications like video streaming: a DASH
player fetches a segment every few seconds, and what it cares about is
*segment delivery time* and the queueing delay its own traffic creates (which
inflates interaction latency for everything sharing the bottleneck).

This example models one HD video segment (6 MiB) fetched by:

* picoquic with BBR  — the paper's best user-space pacer,
* picoquic with CUBIC — leaky-bucket bursts (16-17 packets),
* quiche + FQ        — kernel-assisted pacing,
* quiche, no qdisc   — timestamps ignored, bursts on the wire,

and reports delivery time, bottleneck loss, and the bottleneck queue's mean
and peak occupancy (converted to ms of queueing delay at 40 Mbit/s).

Run:  python examples/video_streaming.py
"""

from repro import Experiment, ExperimentConfig
from repro.framework.scenarios import SF_PATCH
from repro.metrics.report import render_table
from repro.units import SEC, fmt_time, mib

SEGMENT_BYTES = 6 * 1024 * 1024  # a ~6 s segment of 8 Mbit/s (HD) video

SCENARIOS = [
    ("picoquic / BBR", dict(stack="picoquic", cca="bbr")),
    ("picoquic / CUBIC", dict(stack="picoquic", cca="cubic")),
    ("quiche + FQ", dict(stack="quiche", qdisc="fq", params=SF_PATCH)),
    ("quiche, no qdisc", dict(stack="quiche", qdisc="none", params=SF_PATCH)),
]


def queue_delay_stats(result):
    """Mean/peak bottleneck queue, expressed as added delay at 40 Mbit/s."""
    trace = result.queue_trace
    if len(trace) < 2:
        return 0.0, 0.0
    # Time-weighted mean of the sampled queue depth.
    total_area = 0
    peak = 0
    for (t0, q0), (t1, _q1) in zip(trace, trace[1:]):
        total_area += q0 * (t1 - t0)
        peak = max(peak, q0)
    duration = trace[-1][0] - trace[0][0] or 1
    mean_bytes = total_area / duration
    to_ms = lambda b: b * 8 / 40_000_000 * 1000  # bytes -> ms at 40 Mbit/s
    return to_ms(mean_bytes), to_ms(peak)


def main() -> None:
    rows = []
    for label, kwargs in SCENARIOS:
        config = ExperimentConfig(
            file_size=SEGMENT_BYTES, repetitions=1, trace_queue=True, **kwargs
        )
        print(f"fetching one video segment via {label} ...")
        result = Experiment(config, seed=9).run()
        mean_ms, peak_ms = queue_delay_stats(result)
        rows.append(
            [
                label,
                fmt_time(result.duration_ns),
                str(result.dropped),
                f"{mean_ms:.1f} ms",
                f"{peak_ms:.1f} ms",
            ]
        )

    print()
    print(
        render_table(
            ["sender", "segment delivery", "lost packets", "mean queue", "peak queue"],
            rows,
            title=f"Delivery of one {SEGMENT_BYTES // 1024} KiB video segment (40 Mbit/s, 40 ms RTT)",
        )
    )
    print(
        "\nAll senders deliver the segment in about the same time, but the"
        "\nrate-based, precisely paced sender (picoquic BBR) does it with a"
        "\nfraction of the queueing delay and zero loss, while loss-based"
        "\nsenders fill the bottleneck buffer; among those, bursty pacing"
        "\n(picoquic CUBIC's 16-packet trains) additionally multiplies loss."
    )


if __name__ == "__main__":
    main()
