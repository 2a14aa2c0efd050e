#!/usr/bin/env python3
"""Web page load: pacing and multiplexed HTTP/3 streams.

The paper motivates pacing with web access among its application scenarios.
A page load is many objects multiplexed over one connection; what the user
feels is when objects finish. This example fetches a 12-object page (4 MiB
total) over each stack and reports first-object, median-object, and full
page-load time.

Run:  python examples/web_page_load.py
"""

from repro import Experiment, ExperimentConfig
from repro.framework.scenarios import SF_PATCH
from repro.metrics.report import render_table
from repro.units import fmt_time, mib

OBJECTS = 12
PAGE_BYTES = mib(4)

SCENARIOS = [
    ("quiche + FQ", dict(stack="quiche", qdisc="fq", params=SF_PATCH)),
    ("quiche, no qdisc", dict(stack="quiche", params=SF_PATCH)),
    ("picoquic / BBR", dict(stack="picoquic", cca="bbr")),
    ("picoquic / CUBIC", dict(stack="picoquic", cca="cubic")),
    ("ngtcp2", dict(stack="ngtcp2")),
]


def main() -> None:
    rows = []
    for label, kwargs in SCENARIOS:
        config = ExperimentConfig(
            objects=OBJECTS, file_size=PAGE_BYTES, repetitions=1, **kwargs
        )
        print(f"loading a {OBJECTS}-object page via {label} ...")
        result = Experiment(config, seed=8).run()
        times = sorted(result.object_completion_ns.values())
        rows.append(
            [
                label,
                fmt_time(times[0]),
                fmt_time(times[len(times) // 2]),
                fmt_time(result.duration_ns),
                str(result.dropped),
            ]
        )

    print()
    print(
        render_table(
            ["stack", "first object", "median object", "page load", "lost packets"],
            rows,
            title=f"{OBJECTS}-object page load ({PAGE_BYTES // (1024 * 1024)} MiB total, 40 Mbit/s / 40 ms)",
        )
    )
    print(
        "\nStreams share the connection round-robin, so objects finish in a"
        "\nwave near the end; differences across stacks come from goodput"
        "\n(ngtcp2's flow-control cap) and loss-recovery stalls, with pacing"
        "\nkeeping the loss column small."
    )


if __name__ == "__main__":
    main()
