#!/usr/bin/env python3
"""Qdisc shootout: which kernel queueing discipline paces QUIC best?

The Section 4.2 / 4.4 question, end to end: run the same quiche transfer
under no qdisc, FQ, ETF, and ETF with LaunchTime offloading, then compare
pacing precision (stddev of expected-vs-actual send time), burstiness and
loss. This is the experiment behind the paper's recommendation of FQ.

Run:  python examples/qdisc_shootout.py
"""

from repro import Experiment, ExperimentConfig, pacing_precision_ns
from repro.framework.scenarios import SF_PATCH
from repro.metrics import fraction_of_packets_in_trains_leq
from repro.metrics.report import render_table
from repro.units import mib

QDISCS = ["none", "fq", "etf", "etf-offload"]


def main() -> None:
    rows = []
    for qdisc in QDISCS:
        config = ExperimentConfig(
            stack="quiche",
            qdisc=qdisc,
            params=SF_PATCH,  # the paper's SF patch
            file_size=mib(4),
            repetitions=1,
        )
        print(f"running {config.label} ...")
        result = Experiment(config, seed=3).run()
        precision_ms = pacing_precision_ns(
            result.expected_send_log, result.server_records
        ) / 1e6
        rows.append(
            [
                qdisc,
                f"{precision_ms:.3f} ms",
                f"{fraction_of_packets_in_trains_leq(result.server_records, 5) * 100:.1f}%",
                str(result.dropped),
                f"{result.goodput_mbps:.2f}",
            ]
        )

    print()
    print(
        render_table(
            ["qdisc", "pacing precision", "trains <= 5", "dropped", "goodput [Mbit/s]"],
            rows,
            title="quiche pacing by qdisc (paper Sections 4.2/4.4)",
        )
    )
    print(
        "\nExpected shape: FQ most precise; ETF worse; LaunchTime no better"
        " than plain ETF; no qdisc worst (timestamps unenforced)."
    )


if __name__ == "__main__":
    main()
