#!/usr/bin/env python3
"""Competing flows: does pacing make QUIC a fair neighbor?

The paper leaves "competing connections" to future work (Section 3.4) while
motivating pacing with exactly this concern — bursty senders inflict loss on
everyone sharing a queue. This extension runs head-to-head contests over one
40 Mbit/s bottleneck and reports per-flow goodput, loss, and Jain fairness.

Contest 1: two identical quiche flows, paced (FQ) vs unpaced.
Contest 2: a QUIC flow against the TCP/TLS comparator.
Contest 3: a three-way mix (quiche+FQ, picoquic BBR, TCP).

Run:  python examples/fair_sharing.py
"""

from repro.framework.multiflow import FlowSpec, MultiFlowExperiment
from repro.framework.scenarios import SF_PATCH
from repro.metrics.report import render_table
from repro.units import fmt_time, mib

SIZE = mib(4)

CONTESTS = [
    (
        "two quiche flows, both kernel-paced (FQ)",
        [
            FlowSpec(stack="quiche", qdisc="fq", params=SF_PATCH, file_size=SIZE),
            FlowSpec(stack="quiche", qdisc="fq", params=SF_PATCH, file_size=SIZE),
        ],
    ),
    (
        "two quiche flows, neither paced",
        [
            FlowSpec(stack="quiche", qdisc="none", params=SF_PATCH, file_size=SIZE),
            FlowSpec(stack="quiche", qdisc="none", params=SF_PATCH, file_size=SIZE),
        ],
    ),
    (
        "quiche+FQ vs TCP/TLS",
        [
            FlowSpec(stack="quiche", qdisc="fq", params=SF_PATCH, file_size=SIZE),
            FlowSpec(stack="tcp", file_size=SIZE),
        ],
    ),
    (
        "quiche+FQ vs picoquic BBR vs TCP/TLS",
        [
            FlowSpec(stack="quiche", qdisc="fq", params=SF_PATCH, file_size=SIZE),
            FlowSpec(stack="picoquic", cca="bbr", file_size=SIZE),
            FlowSpec(stack="tcp", file_size=SIZE),
        ],
    ),
]


def main() -> None:
    for title, flows in CONTESTS:
        print(f"\n=== {title} ===")
        result = MultiFlowExperiment(flows, seed=2).run()
        rows = [
            [
                f"{i}: {f.spec.label}",
                fmt_time(f.duration_ns),
                f"{f.goodput_mbps:.2f}",
                str(f.dropped),
            ]
            for i, f in enumerate(result.flows)
        ]
        print(render_table(["flow", "duration", "goodput [Mbit/s]", "dropped"], rows))
        print(
            f"Jain fairness: {result.fairness:.3f}   "
            f"aggregate goodput: {result.aggregate_goodput_mbps:.2f} Mbit/s   "
            f"total drops: {result.total_dropped}"
        )


if __name__ == "__main__":
    main()
