#!/usr/bin/env python3
"""The GSO trade-off: syscall savings vs wire burstiness.

Section 4.3's first mitigation is "send smaller GSO bursts": the buffer size
directly trades CPU efficiency (fewer kernel crossings) against burstiness.
This example sweeps the GSO buffer size for a quiche+FQ sender and reports
both sides of the trade, then shows how the paced-GSO kernel patch escapes it
entirely (full batching *and* smooth pacing).

Run:  python examples/gso_tradeoff.py
"""

from repro import Experiment, ExperimentConfig
from repro.framework.scenarios import SF_PATCH
from repro.metrics import fraction_of_packets_in_trains_leq
from repro.metrics.report import render_table
from repro.units import mib


def run(gso: str, segments: int = 10):
    config = ExperimentConfig(
        stack="quiche",
        qdisc="fq",
        gso=gso,
        gso_segments=segments,
        params=SF_PATCH,
        file_size=mib(4),
        repetitions=1,
    )
    return Experiment(config, seed=5).run()


def main() -> None:
    rows = []

    def add_row(label, result):
        sendcalls = result.server_stats["gso_buffers"] or result.server_stats["packets_sent"]
        rows.append(
            [
                label,
                str(result.server_stats["packets_sent"]),
                str(sendcalls),
                f"{fraction_of_packets_in_trains_leq(result.server_records, 5) * 100:.1f}%",
                str(result.dropped),
                f"{result.goodput_mbps:.2f}",
            ]
        )

    print("sweeping GSO buffer sizes (quiche + FQ + SF patch) ...")
    add_row("GSO off", run("off"))
    for segments in (2, 4, 10):
        add_row(f"GSO x{segments}", run("on", segments))
    add_row("paced GSO x10 (kernel patch)", run("paced", 10))

    print()
    print(
        render_table(
            ["configuration", "packets", "kernel crossings", "trains <= 5", "dropped", "goodput"],
            rows,
            title="GSO buffer size: batching vs burstiness (paper Section 4.3)",
        )
    )
    print(
        "\nBigger buffers cut kernel crossings roughly linearly but push more"
        "\npackets into long trains; the paced-GSO patch keeps the crossings"
        "\nof x10 batching with the wire behaviour of GSO off."
    )


if __name__ == "__main__":
    main()
