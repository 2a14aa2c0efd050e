"""The run: N flows over the Figure-1 testbed, sharing its bottleneck.

Every measurement is one. A paper measurement is the run at N = 1
(:class:`~repro.framework.experiment.Experiment`); competing connections,
which the paper's Section 3.4 leaves to future work, are N > 1 senders of
any stack profile and CCA, each downloading its own file; a population
(:mod:`repro.framework.population`) is an arrival process that emits one
:class:`FlowSpec` per flow. Each flow is a
:class:`~repro.framework.testbed.WiredFlow` built from the
:class:`ExperimentConfig` it would run alone.

Accounting. Goodput comes from the bytes delivered to the receiving
application (``FlowResult.bytes_received``), never from the configured file
size, so a stalled flow reports the rate it achieved. Drops are attributed
per flow by server port: congestion, injected forward-path drops and
injected reverse-path (ACK) drops; a datagram a demux cannot route is a
wiring bug the conservation validator gates on.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.framework.config import ExperimentConfig, NetworkConfig, variant_parts
from repro.framework.testbed import MAX_FLOWS, SERVER_ADDR, Testbed, WiredFlow
from repro.metrics.fairness import jain_index
from repro.net.demux import DrainSink, PortDemux
from repro.net.tap import CaptureColumns, Sniffer
from repro.sim.engine import Simulator
from repro.sim.random import RngRegistry
from repro.stacks.base import SendLog
from repro.units import mib, ms, seconds

#: The run loop's step: completion is checked between steps.
CHUNK_NS = ms(200)

#: What a flow contributes to the run's fingerprint.
_FLOW_DIGEST = (
    "completed", "duration_ns", "goodput_mbps", "bytes_received", "dropped",
    "injected_drops", "ack_drops", "wire_packets", "start_ns",
)


@dataclass(frozen=True)
class FlowSpec:
    """One sender of a run."""

    stack: str = "quiche"
    cca: str = "cubic"
    qdisc: str = "none"
    gso: str = "off"
    #: Profile overrides, as :attr:`ExperimentConfig.params`.
    params: Tuple[Tuple[str, Any], ...] = ()
    file_size: int = mib(4)
    start_ns: int = 0
    #: Extra round-trip time for this flow, applied as additional one-way
    #: delay on its reverse (ACK) path — heterogeneous RTTs over one shared
    #: forward bottleneck, the flow-population setup.
    extra_rtt_ns: int = 0

    @property
    def label(self) -> str:
        return "/".join(variant_parts(self))


@dataclass
class FlowResult:
    spec: FlowSpec
    completed: bool
    duration_ns: int
    #: Computed from ``bytes_received`` (bytes actually delivered to the
    #: application), not from ``spec.file_size`` — an incomplete flow reports
    #: the rate it actually achieved.
    goodput_mbps: float
    #: Congestion (bottleneck queue-overflow) drops attributed to this flow.
    dropped: int
    #: Application bytes delivered to the receiver (== file_size iff completed).
    bytes_received: int = 0
    #: Forward-path fault-injection drops attributed to this flow.
    injected_drops: int = 0
    #: Reverse-path (ACK) fault-injection drops attributed to this flow.
    ack_drops: int = 0
    #: Frames this flow put on the wire (tap capture), counted columnar.
    wire_packets: int = 0
    start_ns: int = 0
    #: This flow's frames at the tap, in arrival order (``capture_records``
    #: runs; empty otherwise).
    records: CaptureColumns = field(default_factory=CaptureColumns)
    #: ``(packet number, expected send time)`` per QUIC packet the server
    #: built (``capture_records`` runs; empty otherwise and for TCP).
    expected_send_log: SendLog = field(default_factory=SendLog)
    #: The server's cwnd over time (configs with ``trace_cwnd``).
    cwnd_trace: List[Tuple[int, int]] = field(default_factory=list)
    qdisc_stats: dict = field(default_factory=dict)
    server_stats: dict = field(default_factory=dict)
    #: Per-object completion times relative to the request (QUIC).
    object_completion_ns: dict = field(default_factory=dict)


@dataclass
class MultiFlowResult:
    flows: List[FlowResult]
    total_dropped: int
    sim_time_ns: int
    seed: int = 0
    #: Forward-path injected (impairment) drops, all flows.
    injected_drops: int = 0
    #: Reverse-path (ACK) injected drops, all flows.
    ack_drops: int = 0
    #: Datagrams the port demuxes could not route (always a wiring bug; the
    #: conservation validator gates on zero).
    unrouted: int = 0
    #: Straggler datagrams absorbed by departed flows' drain sinks (churn
    #: runs only; always 0 without churn).
    drained: int = 0
    #: Per-stage impairment counters, keyed ``"{dir}/{index}/{kind}"``.
    impairment_stats: dict = field(default_factory=dict)
    #: The bottleneck's backlog over time (a flow config with ``trace_queue``).
    queue_trace: List[Tuple[int, int]] = field(default_factory=list)
    #: Execution observability, excluded from the fingerprint.
    events_processed: int = 0
    wall_time_s: float = 0.0

    @property
    def fairness(self) -> float:
        return jain_index([f.goodput_mbps for f in self.flows])

    @property
    def fairness_completed(self) -> float:
        """Jain index over completed flows only (population reporting); 1.0
        when nothing completed (no allocation to be unfair about)."""
        done = [f.goodput_mbps for f in self.flows if f.completed]
        return jain_index(done) if done else 1.0

    @property
    def aggregate_goodput_mbps(self) -> float:
        return sum(f.goodput_mbps for f in self.flows)

    @property
    def all_completed(self) -> bool:
        return all(f.completed for f in self.flows)

    @property
    def completed_count(self) -> int:
        return sum(1 for f in self.flows if f.completed)

    def canonical_bytes(self) -> bytes:
        """The bytes :meth:`fingerprint` hashes: the seed and the outputs,
        each flow's in index order (its :class:`FlowSpec` is identity, not
        behaviour)."""
        payload = {
            "seed": self.seed,
            "drained": self.drained,
            "sim_time_ns": self.sim_time_ns,
            "total_dropped": self.total_dropped,
            "injected_drops": self.injected_drops,
            "ack_drops": self.ack_drops,
            "unrouted": self.unrouted,
            "impairment_stats": self.impairment_stats,
            "flows": [{key: getattr(f, key) for key in _FLOW_DIGEST} for f in self.flows],
        }
        return json.dumps(payload, sort_keys=True).encode()

    def fingerprint(self) -> str:
        """The behaviour digest: the seed and every deterministic output.

        Excludes the flow specs (identity), execution observability
        (``wall_time_s``, ``events_processed``) and the per-flow per-packet
        outputs and traces (an observability toggle, not a result: a run with
        ``capture_records=False`` or a qlog-traced flow must fingerprint
        identically to the plain run).
        """
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    def validate(self) -> None:
        """Check the multi-flow conservation invariants (see
        :func:`repro.framework.validate.validate_multiflow`)."""
        from repro.framework.validate import validate_multiflow

        validate_multiflow(self)


def flow_config(spec: FlowSpec, network: NetworkConfig) -> ExperimentConfig:
    """``spec`` as the single-flow configuration of the same sender: what a
    FlowSpec cannot say (ETF delta, GSO buffer size, ECN) takes the
    :class:`ExperimentConfig` default."""
    return ExperimentConfig(
        stack=spec.stack,
        cca=spec.cca,
        qdisc=spec.qdisc,
        gso=spec.gso,
        params=spec.params,
        file_size=spec.file_size,
        network=network,
    )


class MultiFlowExperiment:
    """N flows over one shared bottleneck: the one run shape.

    Flow ``i`` is ``flows[i]`` wired from ``configs[i]``, by default
    :func:`flow_config` of it; a config can ask for what a spec cannot say
    (traces, qlog, ECN, objects). ``capture_records=False`` keeps no
    per-packet output at all — no capture columns, no expected-send log —
    only the frames per flow behind ``wire_packets``, which is what
    flow-population runs use. With ``churn`` each flow is torn down as it
    completes.
    """

    def __init__(
        self,
        flows: Sequence[FlowSpec],
        network: Optional[NetworkConfig] = None,
        seed: int = 1,
        max_sim_time_ns: int = seconds(300),
        capture_records: bool = True,
        churn: bool = False,
        configs: Optional[Sequence[ExperimentConfig]] = None,
    ):
        if not flows:
            raise ValueError("at least one flow is required")
        if len(flows) > MAX_FLOWS:
            raise ValueError(
                f"{len(flows)} flows exceed the port budget ({MAX_FLOWS}): "
                f"server ports would collide with client ports"
            )
        network = network or NetworkConfig()
        if configs is None:
            configs = [flow_config(spec, network) for spec in flows]
        if len(configs) != len(flows):
            raise ValueError(f"{len(configs)} configs for {len(flows)} flows")
        # The shared bottleneck marks ECN and traces its queue for any flow
        # that asks.
        ecn = trace_queue = False
        for cfg in configs:
            cfg.validate()
            ecn |= cfg.ecn
            trace_queue |= cfg.trace_queue
        self.seed = seed
        self.max_sim_time_ns = max_sim_time_ns
        self.capture_records = capture_records
        self.churn = churn
        self.sim = Simulator()
        self.rngs = RngRegistry(seed)
        self.sniffer = Sniffer(per_packet=capture_records)
        #: Shared terminal sink for every departed flow's ports.
        self._drain = DrainSink()

        testbed = self.testbed = Testbed(self.sim, self.rngs, network, self.sniffer, ecn=ecn)
        testbed.bottleneck.trace_queue = trace_queue
        self.flows: List[WiredFlow] = []
        for index, (spec, cfg) in enumerate(zip(flows, configs)):
            self.flows.append(WiredFlow(testbed, index, spec, cfg, capture_records))
        self.client_demux = self.server_demux = None
        if len(self.flows) == 1:
            testbed.deliver_to(self.flows[0].client_sock, self.flows[0].ack_sink)
        else:
            self.client_demux = PortDemux({f.client_port: f.client_sock for f in self.flows})
            self.server_demux = PortDemux({f.server_port: f.ack_sink for f in self.flows})
            testbed.deliver_to(self.client_demux, self.server_demux)

    # -- run -------------------------------------------------------------------

    def run(self) -> MultiFlowResult:
        """Run until every flow completes, the calendar empties or
        ``max_sim_time_ns`` passes.

        Completion is checked every :data:`CHUNK_NS` of simulated time, so a
        run continues up to 200 ms past its last completion and the shared
        counters (drops, impairment stages, the queue trace) include that
        traffic; changing the stop rule moves every digest.
        """
        wall_start = time.perf_counter()
        for flow in self.flows:
            if flow.spec.start_ns:
                self.sim.schedule_at(flow.spec.start_ns, flow.start)
            else:
                flow.start()

        # Steady-state traffic allocates and frees at a rate that makes the
        # cyclic GC's periodic full scans pure overhead (the object graph
        # has no growing cycles; retirement breaks the per-flow ones
        # explicitly). Results are identical either way.
        gc_paused = gc.isenabled()
        if gc_paused:
            gc.disable()
        try:
            active = list(self.flows)
            while active and self.sim.now < self.max_sim_time_ns:
                before = self.sim.events_processed
                self.sim.run(until=self.sim.now + CHUNK_NS)
                done = [f for f in active if f.done]
                if done:
                    if self.churn:
                        for f in done:
                            self._retire(f)
                    active = [f for f in active if f not in done]
                if (
                    active
                    and self.sim.events_processed == before
                    and self.sim.peek_time() is None
                ):
                    break
        finally:
            if gc_paused:
                gc.enable()

        return self._collect(wall_start)

    def _retire(self, flow: WiredFlow) -> None:
        """Tear down a finished flow (:meth:`WiredFlow.retire`) and drop its
        RNG streams. Its ports lead to the drain sink, which counts the
        stragglers still in flight as ``drained``; a one-flow run has no
        demux, and its loop ends with its flow."""
        if self.client_demux is not None:
            self.client_demux.add_route(flow.client_port, self._drain)
            self.server_demux.add_route(flow.server_port, self._drain)
        # The extra-RTT stage sits *between* the shared demux and the server
        # socket, so rerouting the demux alone would still let ACKs already
        # inside the delay line hit the dead socket tens of milliseconds from
        # now (and, for TCP, trigger a whole go-back-N burst).
        if flow.ack_sink is not flow.server_sock:
            flow.ack_sink.sink = self._drain
        flow.retire(self.sim.now)
        self.rngs.drop(flow.streams)

    def _collect(self, wall_start: float) -> MultiFlowResult:
        testbed, capture = self.testbed, self.capture_records
        # The captured frames per flow, by server port. The tap sees only the
        # forward direction (server hosts feed it), but filter by source
        # address anyway so a future topology change cannot silently
        # misattribute reverse frames.
        by_port = {flow.server_port: i for i, flow in enumerate(self.flows)}
        wire = [0] * len(self.flows)
        for f, count in self.sniffer.frames_per_flow().items():
            index = by_port.get(f[1]) if f[0] == SERVER_ADDR else None
            if index is not None:
                wire[index] += count
        cols = self.sniffer.columns
        records = _split_capture(cols, by_port, wire) if capture else [CaptureColumns()] * len(wire)

        # Drops per server port: congestion and injected forward drops by a
        # data packet's source port, injected reverse drops by an ACK's
        # destination port.
        congestion: Dict[int, int] = {}
        for f, count in testbed.bottleneck.drops_by_flow.items():
            congestion[f[1]] = congestion.get(f[1], 0) + count
        injected: Dict[int, int] = {}
        ack_drops: Dict[int, int] = {}
        impairment_stats = {}
        for stages, by_port, port in (
            (testbed.fwd_impairments, injected, 1),
            (testbed.rev_impairments, ack_drops, 3),
        ):
            for stage in stages:
                impairment_stats[stage.name] = stage.stats.as_dict()
                for f, count in stage.drops_by_flow.items():
                    by_port[f[port]] = by_port.get(f[port], 0) + count

        now = self.sim.now
        results = []
        for index, flow in enumerate(self.flows):
            port = flow.server_port
            results.append(
                FlowResult(
                    spec=flow.spec,
                    **flow.outputs(now),
                    dropped=congestion.get(port, 0),
                    injected_drops=injected.get(port, 0),
                    ack_drops=ack_drops.get(port, 0),
                    wire_packets=wire[index],
                    records=records[index],
                )
            )
        return MultiFlowResult(
            flows=results,
            total_dropped=testbed.bottleneck.dropped,
            sim_time_ns=now,
            seed=self.seed,
            injected_drops=sum(injected.values()),
            ack_drops=sum(ack_drops.values()),
            unrouted=self.client_demux.unrouted + self.server_demux.unrouted
            if self.client_demux is not None
            else 0,
            drained=self._drain.drained,
            impairment_stats=impairment_stats,
            queue_trace=list(testbed.bottleneck.queue_trace),
            events_processed=self.sim.events_processed,
            wall_time_s=time.perf_counter() - wall_start,
        )


def _split_capture(
    cols: CaptureColumns, by_port: Dict[int, int], wire: List[int]
) -> List[CaptureColumns]:
    """The capture's rows per flow (``by_port`` maps a server port to its
    flow), in capture order, in one pass over the rows; the capture itself
    when it is one flow's."""
    if wire == [len(cols.time_ns)]:
        return [cols]
    owner = [by_port.get(f[1]) if f[0] == SERVER_ADDR else None for f in cols.flows]
    rows: List[List[int]] = [[] for _ in wire]
    for row, entry in enumerate(cols.flow_index):
        if owner[entry] is not None:
            rows[owner[entry]].append(row)
    return [cols.select(r) for r in rows]
