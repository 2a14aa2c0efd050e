"""Competing flows over a shared bottleneck (extension).

The paper's Section 3.4 explicitly leaves "competing connections" and
"shared queues" to future work. This module implements that scenario: N
senders (any mix of stack profiles and CCAs) share the 40 Mbit/s bottleneck,
each downloading its own file, and we measure per-flow goodput, loss, and
Jain fairness. It also exercises FQ's multi-flow scheduling, which the
single-connection experiments never touch.

Topology: the testbed of :mod:`repro.framework.testbed`, with one sender
host per flow and a port demux at the end of each shared path, plus an
optional per-flow extra delay stage on the ACK path
(``FlowSpec.extra_rtt_ns``) so flow populations can have heterogeneous RTTs
over one shared queue.

Accounting. Per-flow goodput is computed from the bytes actually delivered
to the receiving application (``FlowResult.bytes_received``), never from the
configured file size — a stalled flow that delivered 1 % of its file reports
1 % of the rate, not a full-file fantasy number. Drops are attributed
end-to-end: congestion (bottleneck queue overflow) per flow, injected
forward-path impairment drops per flow, injected reverse-path (ACK) drops
per flow, and unrouted demux datagrams (always a wiring bug; the
conservation validator gates on zero).

Scale. ``capture_records=False`` skips the per-flow split of the capture
(``FlowResult.records`` stay empty), so a several-hundred-flow population run
holds the tap's columns once; per-flow wire-packet counts are still derived
in one pass over them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.framework.config import ExperimentConfig, NetworkConfig, variant_parts
from repro.framework.testbed import SERVER_ADDR, Testbed, WiredFlow
from repro.kernel.qdisc.netem import NetemQdisc
from repro.metrics.fairness import jain_index
from repro.metrics.goodput import goodput_mbps
from repro.net.demux import DrainSink, PortDemux
from repro.net.tap import CaptureColumns, Sniffer
from repro.sim.engine import Simulator
from repro.sim.random import RngRegistry
from repro.units import mib, ms, seconds

BASE_SERVER_PORT = 4433
BASE_CLIENT_PORT = 50000

#: Ports are allocated as BASE + index on both sides; beyond this many flows
#: the server range would collide with the client range.
MAX_FLOWS = BASE_CLIENT_PORT - BASE_SERVER_PORT


@dataclass(frozen=True)
class FlowSpec:
    """One competing sender."""

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
            "flows": [
                {
                    "completed": f.completed,
                    "duration_ns": f.duration_ns,
                    "goodput_mbps": f.goodput_mbps,
                    "bytes_received": f.bytes_received,
                    "dropped": f.dropped,
                    "injected_drops": f.injected_drops,
                    "ack_drops": f.ack_drops,
                    "wire_packets": f.wire_packets,
                    "start_ns": f.start_ns,
                }
                for f in self.flows
            ],
        }
        return json.dumps(payload, sort_keys=True).encode()

    def fingerprint(self) -> str:
        """The behaviour digest: the seed and every deterministic output.

        Excludes the flow specs (identity), execution observability
        (``wall_time_s``, ``events_processed``) and the optional per-flow
        captures (which
        are an observability toggle, not a result: a run with
        ``capture_records=False`` must fingerprint identically to the same
        run with capture on).
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


class _Flow:
    """Internal per-flow state."""

    def __init__(self, spec: FlowSpec, index: int):
        self.spec = spec
        self.index = index
        self.server_port = BASE_SERVER_PORT + index
        self.client_port = BASE_CLIENT_PORT + index
        #: Sockets, sender host and endpoints; dropped at churn teardown.
        self.wired: Optional[WiredFlow] = None
        #: The extra-RTT stage, if any; dropped at churn teardown.
        self.per_flow_delay: Optional[NetemQdisc] = None
        #: Frozen (start, end, bytes) snapshot taken at retirement; after
        #: teardown the live objects are gone and these answer for them.
        self._frozen: Optional[tuple[int, int, int]] = None

    @property
    def done(self) -> bool:
        return self._frozen is not None or self.wired.done

    def freeze(self, now: int) -> None:
        """Snapshot the result-facing state ahead of teardown."""
        start, end = self.timing(now)
        self._frozen = (start, end, self.bytes_delivered())

    def timing(self, fallback_now: int) -> tuple[int, int]:
        if self._frozen is not None:
            return self._frozen[0], self._frozen[1]
        return self.wired.span(fallback_now, self.spec.start_ns)

    def bytes_delivered(self) -> int:
        """Application bytes the receiver actually got (contiguous)."""
        if self._frozen is not None:
            return self._frozen[2]
        return self.wired.bytes_delivered()


class MultiFlowExperiment:
    """N flows over one shared bottleneck.

    ``capture_records=False`` leaves every ``FlowResult.records`` empty
    (wire-packet counts are still reported), which is what flow-population
    runs use.
    """

    def __init__(
        self,
        flows: Sequence[FlowSpec],
        network: Optional[NetworkConfig] = None,
        seed: int = 1,
        max_sim_time_ns: int = seconds(300),
        capture_records: bool = True,
        churn: bool = False,
    ):
        if not flows:
            raise ValueError("at least one flow is required")
        if len(flows) > MAX_FLOWS:
            raise ValueError(
                f"{len(flows)} flows exceed the port budget ({MAX_FLOWS}): "
                f"server ports would collide with client ports"
            )
        self.specs = list(flows)
        self.network = network or NetworkConfig()
        self.seed = seed
        self.max_sim_time_ns = max_sim_time_ns
        self.capture_records = capture_records
        self.churn = churn
        self.sim = Simulator()
        self.rngs = RngRegistry(seed)
        self.sniffer = Sniffer()
        self._flows: List[_Flow] = []
        #: Shared terminal sink for every departed flow's ports.
        self._drain = DrainSink()

        # The shared paths end in a port demux per direction; every flow
        # brings its own sender host, client socket and endpoints.
        testbed = Testbed(self.sim, self.rngs, self.network, self.sniffer)
        self.client_demux = PortDemux()
        self.server_demux = PortDemux()
        testbed.deliver_to(self.client_demux, self.server_demux)
        self.bottleneck = testbed.bottleneck
        self.fwd_impairments = testbed.fwd_impairments
        self.rev_impairments = testbed.rev_impairments
        for index, spec in enumerate(self.specs):
            flow = _Flow(spec, index)
            self._flows.append(flow)
            cfg = flow_config(spec, self.network)
            cfg.validate()
            wired = flow.wired = WiredFlow(
                testbed,
                cfg,
                f"flow{index}",
                flow.server_port,
                flow.client_port,
                rng_for=lambda role: self.rngs.stream(f"flow{index}-{role}"),
            )
            self.client_demux.add_route(flow.client_port, wired.client_sock)
            # Heterogeneous per-flow RTT: extra one-way delay on this flow's
            # reverse path only, inserted between the shared demux and the
            # server socket so the shared forward queue stays untouched.
            if spec.extra_rtt_ns > 0:
                flow.per_flow_delay = NetemQdisc(
                    self.sim,
                    f"rtt-{index}",
                    sink=wired.server_sock,
                    delay_ns=spec.extra_rtt_ns,
                    rng=self.rngs.stream(f"flow{index}-rtt"),
                )
                self.server_demux.add_route(flow.server_port, flow.per_flow_delay)
            else:
                self.server_demux.add_route(flow.server_port, wired.server_sock)

    # -- run -------------------------------------------------------------------

    def run(self) -> MultiFlowResult:
        wall_start = time.perf_counter()
        for flow in self._flows:
            self.sim.schedule_at(flow.spec.start_ns, flow.wired.start)

        # Steady-state traffic allocates and frees at a rate that makes the
        # cyclic GC's periodic full scans pure overhead (the object graph
        # has no growing cycles; retirement breaks the per-flow ones
        # explicitly). Results are identical either way.
        gc_paused = gc.isenabled()
        if gc_paused:
            gc.disable()
        try:
            chunk = ms(200)
            active = list(self._flows)
            while active and self.sim.now < self.max_sim_time_ns:
                before = self.sim.events_processed
                self.sim.run(until=self.sim.now + chunk)
                if any(f.done for f in active):
                    if self.churn:
                        for f in active:
                            if f.done:
                                self._retire(f)
                    active = [f for f in active if not f.done]
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

    def _retire(self, flow: _Flow) -> None:
        """Tear down a finished flow: freeze its result-facing state, silence
        every timer it could re-arm, reroute its ports to the drain sink, and
        drop the references so a long churn run holds O(active) state.

        Straggler datagrams already in flight keep their own pipeline stages
        alive until delivered; they terminate in :class:`DrainSink` (counted
        as ``drained``) instead of a dead socket.
        """
        flow.freeze(self.sim.now)
        flow.wired.detach()
        self.client_demux.add_route(flow.client_port, self._drain)
        self.server_demux.add_route(flow.server_port, self._drain)
        # The per-flow extra-RTT stage sits *between* the shared demux and
        # the server socket, so rerouting the demux alone would still let
        # ACKs already inside the delay line hit the dead socket tens of
        # milliseconds from now (and, for TCP, trigger a whole go-back-N
        # burst). Point its sink at the drain too.
        if flow.per_flow_delay is not None:
            flow.per_flow_delay.sink = self._drain
        flow.wired = None
        flow.per_flow_delay = None

    def _collect(self, wall_start: float) -> MultiFlowResult:
        # One columnar pass: frames on the wire per server port. The tap sees
        # only the forward direction (server hosts feed it), but filter by
        # source address anyway so a future topology change cannot silently
        # misattribute reverse frames.
        cols = self.sniffer.columns
        frames_by_flow_index = Counter(cols.flow_index)
        wire_by_port: Dict[int, int] = {}
        for flow_idx, count in frames_by_flow_index.items():
            f = cols.flows[flow_idx]
            if f[0] == SERVER_ADDR:
                wire_by_port[f[1]] = wire_by_port.get(f[1], 0) + count
        # The capture's rows per server port, in capture order: one pass over
        # the rows, not one per flow.
        rows_by_port: Dict[int, List[int]] = {}
        no_rows = CaptureColumns()  # shared by every flow without a capture
        if self.capture_records:
            for row, flow_idx in enumerate(cols.flow_index):
                f = cols.flows[flow_idx]
                if f[0] == SERVER_ADDR:
                    rows_by_port.setdefault(f[1], []).append(row)

        # Congestion drops per server port (forward path: src port == server).
        congestion_by_port: Dict[int, int] = {}
        for f, count in self.bottleneck.drops_by_flow.items():
            congestion_by_port[f[1]] = congestion_by_port.get(f[1], 0) + count
        # Injected forward drops per server port (src port of a data packet).
        fwd_injected_by_port: Dict[int, int] = {}
        for stage in self.fwd_impairments:
            for f, count in stage.drops_by_flow.items():
                fwd_injected_by_port[f[1]] = fwd_injected_by_port.get(f[1], 0) + count
        # Injected reverse (ACK) drops per server port (dst port of an ACK).
        ack_injected_by_port: Dict[int, int] = {}
        for stage in self.rev_impairments:
            for f, count in stage.drops_by_flow.items():
                ack_injected_by_port[f[3]] = ack_injected_by_port.get(f[3], 0) + count

        results = []
        for flow in self._flows:
            start, end = flow.timing(self.sim.now)
            port = flow.server_port
            bytes_received = flow.bytes_delivered()
            results.append(
                FlowResult(
                    spec=flow.spec,
                    completed=flow.done,
                    duration_ns=end - start,
                    goodput_mbps=goodput_mbps(bytes_received, end - start),
                    dropped=congestion_by_port.get(port, 0),
                    bytes_received=bytes_received,
                    injected_drops=fwd_injected_by_port.get(port, 0),
                    ack_drops=ack_injected_by_port.get(port, 0),
                    wire_packets=wire_by_port.get(port, 0),
                    start_ns=flow.spec.start_ns,
                    records=cols.select(rows_by_port[port]) if port in rows_by_port else no_rows,
                )
            )
        impairment_stats = {
            stage.name: stage.stats.as_dict()
            for stage in (*self.fwd_impairments, *self.rev_impairments)
        }
        return MultiFlowResult(
            flows=results,
            total_dropped=self.bottleneck.dropped,
            sim_time_ns=self.sim.now,
            seed=self.seed,
            injected_drops=sum(s.stats.injected_drops for s in self.fwd_impairments),
            ack_drops=sum(s.stats.injected_drops for s in self.rev_impairments),
            unrouted=self.client_demux.unrouted + self.server_demux.unrouted,
            drained=self._drain.drained,
            impairment_stats=impairment_stats,
            events_processed=self.sim.events_processed,
            wall_time_s=time.perf_counter() - wall_start,
        )
