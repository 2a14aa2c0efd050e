"""One measurement: a single download over the Figure-1 testbed.

It is the run of :mod:`repro.framework.multiflow` at N = 1, its flow
described by the :class:`ExperimentConfig` itself; :class:`ExperimentResult`
is that flow's view of the run, and digests as that run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.framework.config import ExperimentConfig
from repro.framework.multiflow import FlowResult, FlowSpec, MultiFlowExperiment, MultiFlowResult
from repro.net.tap import NO_FRAMES, CaptureColumns
from repro.stacks.base import SendLog


@dataclass
class ExperimentResult:
    """A one-flow run as its flow sees it (:meth:`view`): the flow's outputs
    and per-packet observability (capture, expected-send log, traces), plus
    the run's counters its digest reads."""

    config: ExperimentConfig
    seed: int
    completed: bool
    duration_ns: int
    goodput_mbps: float
    dropped: int
    #: The tap's capture of the server's frames, in arrival order.
    server_records: CaptureColumns
    #: The server's expected send time per packet (empty for TCP).
    expected_send_log: SendLog
    cwnd_trace: List[Tuple[int, int]] = field(default_factory=list)
    queue_trace: List[Tuple[int, int]] = field(default_factory=list)
    qdisc_stats: dict = field(default_factory=dict)
    server_stats: dict = field(default_factory=dict)
    #: Per-object completion times relative to the request (multi-object runs).
    object_completion_ns: dict = field(default_factory=dict)
    #: Fault-injection drops (impairment stages), as opposed to ``dropped``,
    #: which counts congestion (bottleneck queue-overflow) drops.
    injected_drops: int = 0
    #: Per-stage impairment counters, keyed ``"{dir}/{index}/{kind}"``.
    impairment_stats: dict = field(default_factory=dict)
    #: Of ``injected_drops``, those on the reverse (ACK) path.
    ack_drops: int = 0
    #: Application bytes delivered to the receiver.
    bytes_received: int = 0
    #: The frames the flow put on the wire and their digest, as the tap
    #: folded them (:attr:`FlowResult.wire_digest`).
    wire_packets: int = 0
    wire_digest: str = NO_FRAMES
    #: When the run stopped (simulated time).
    sim_time_ns: int = 0
    #: Execution observability (progress/throughput reporting, not metrics):
    #: simulator events fired and host wall-clock seconds for this repetition.
    events_processed: int = 0
    wall_time_s: float = 0.0

    @classmethod
    def view(cls, config: ExperimentConfig, run: MultiFlowResult) -> "ExperimentResult":
        """A one-flow run as its flow sees it: the shared path's counters
        (drops, impairment stages, queue trace) are all its own."""
        flow = run.flows[0]
        return cls(
            config=config,
            seed=run.seed,
            completed=flow.completed,
            duration_ns=flow.duration_ns,
            goodput_mbps=flow.goodput_mbps,
            dropped=run.total_dropped,
            server_records=flow.records,
            expected_send_log=flow.expected_send_log,
            cwnd_trace=flow.cwnd_trace,
            queue_trace=run.queue_trace,
            qdisc_stats=flow.qdisc_stats,
            server_stats=flow.server_stats,
            object_completion_ns=flow.object_completion_ns,
            injected_drops=run.injected_drops + run.ack_drops,
            impairment_stats=run.impairment_stats,
            ack_drops=run.ack_drops,
            bytes_received=flow.bytes_received,
            wire_packets=flow.wire_packets,
            wire_digest=flow.wire_digest,
            sim_time_ns=run.sim_time_ns,
            events_processed=run.events_processed,
            wall_time_s=run.wall_time_s,
        )

    @property
    def packets_on_wire(self) -> int:
        return len(self.server_records)

    def fingerprint(self) -> str:
        """The behaviour digest of the one-flow run this result views: that
        run's :meth:`MultiFlowResult.fingerprint`, through its one encoding.

        It is computed from this result's own fields, so an altered copy
        digests anew. The config (identity), execution observability and
        the per-packet outputs stay out of it, exactly as they stay out of a
        run's; the capture enters as the tap's ``wire_digest``, so the digest
        is O(1) to take and holds nothing of the capture.
        """
        forward = self.injected_drops - self.ack_drops
        flow = FlowResult(
            spec=None,  # identity: no digest reads it
            completed=self.completed,
            duration_ns=self.duration_ns,
            goodput_mbps=self.goodput_mbps,
            dropped=self.dropped,
            bytes_received=self.bytes_received,
            injected_drops=forward,
            ack_drops=self.ack_drops,
            wire_packets=self.wire_packets,
            wire_digest=self.wire_digest,
            qdisc_stats=self.qdisc_stats,
            server_stats=self.server_stats,
            object_completion_ns=self.object_completion_ns,
        )
        run = MultiFlowResult(
            flows=[flow],
            total_dropped=self.dropped,
            sim_time_ns=self.sim_time_ns,
            seed=self.seed,
            injected_drops=forward,
            ack_drops=self.ack_drops,
            impairment_stats=self.impairment_stats,
        )
        return run.fingerprint()


class Experiment(MultiFlowExperiment):
    """One repetition of a configured measurement: the run at N = 1, its one
    flow wired from ``config`` itself."""

    def __init__(self, config: ExperimentConfig, seed: Optional[int] = None):
        self.config = config
        spec = FlowSpec(
            config.stack, config.cca, config.qdisc, config.gso, config.params, config.file_size
        )
        super().__init__(
            [spec],
            network=config.network,
            seed=config.seed if seed is None else seed,
            max_sim_time_ns=config.max_sim_time_ns,
            configs=[config],
        )

    def run(self) -> ExperimentResult:
        return ExperimentResult.view(self.config, super().run())


def run_experiment(config: ExperimentConfig, seed: Optional[int] = None) -> ExperimentResult:
    """Convenience: build and run one repetition."""
    return Experiment(config, seed=seed).run()
