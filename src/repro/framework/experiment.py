"""One measurement: assemble the Figure-1 topology, run a single download.

Topology (measurement direction, left to right)::

    server app/stack -> UDP socket -> qdisc -> GSO segmenter -> NIC (+LaunchTime)
        -> 1 Gbit/s link -> optical tap (sniffer) -> TBF 40 Mbit/s (2xBDP buffer)
        -> netem +20 ms -> client socket -> client stack

    client ACKs -> 1 Gbit/s link -> netem +20 ms -> server socket

The sniffer sits *before* the bottleneck, so captured timestamps show the
server's pacing, not the shaper's.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cc.factory import make_cc
from repro.errors import SimulationError
from repro.framework.config import ExperimentConfig
from repro.kernel.gso import GsoSegmenter
from repro.kernel.qdisc import make_qdisc
from repro.kernel.socket import UdpSocket
from repro.metrics.goodput import goodput_mbps
from repro.net.bottleneck import Bottleneck
from repro.net.impairments import build_impairments
from repro.net.link import Link
from repro.net.nic import Nic
from repro.kernel.socket import reset_gso_ids
from repro.net.packet import reset_dgram_ids
from repro.net.tap import CaptureRecord, FiberTap, Sniffer
from repro.pacing.gso_policy import GsoPolicy
from repro.quic import h3
from repro.quic.connection import Connection, ConnectionConfig
from repro.sim.engine import Simulator
from repro.sim.random import RngRegistry
from repro.stacks.base import ServerDriver, make_pacer
from repro.stacks.client import ClientDriver
from repro.stacks.profiles import profile_for
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender
from repro.units import mib, ms, us

SERVER_ADDR, SERVER_PORT = "10.0.0.1", 443
CLIENT_ADDR, CLIENT_PORT = "10.0.0.2", 40000

#: QUIC max UDP payload used throughout (paper-like 1252-byte packets).
MTU_PAYLOAD = 1252


#: One capture record as ``json.dumps(asdict(record), sort_keys=True)`` writes
#: it; ``flow`` arrives JSON-encoded, ``gso_id``/``packet_number`` as an int or
#: ``"null"``.
_CAPTURE_ROW = (
    '{"dgram_id": %d, "flow": %s, "gso_id": %s, "packet_number": %s, '
    '"payload_size": %d, "time_ns": %d, "wire_size": %d}'
)

#: Capture rows joined and handed to the hash per chunk, so a 100 MiB
#: transfer's fingerprint never holds its whole encoding in memory.
_CAPTURE_CHUNK_ROWS = 4096


def _encode_capture(records: Sequence[CaptureRecord]) -> Iterator[bytes]:
    """The capture as the elements of a JSON list (brackets excluded)."""
    flows: Dict[Tuple[str, int, str, int], str] = {}
    for start in range(0, len(records), _CAPTURE_CHUNK_ROWS):
        rows = []
        for r in records[start : start + _CAPTURE_CHUNK_ROWS]:
            flow = flows.get(r.flow)
            if flow is None:
                flow = flows[r.flow] = json.dumps(r.flow)
            gso_id, packet_number = r.gso_id, r.packet_number
            rows.append(
                _CAPTURE_ROW
                % (
                    r.dgram_id,
                    flow,
                    "null" if gso_id is None else gso_id,
                    "null" if packet_number is None else packet_number,
                    r.payload_size,
                    r.time_ns,
                    r.wire_size,
                )
            )
        yield ((", " if start else "") + ", ".join(rows)).encode()


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    seed: int
    completed: bool
    duration_ns: int
    goodput_mbps: float
    dropped: int
    server_records: List[CaptureRecord]
    expected_send_log: List[Tuple[int, int]]
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
    #: Execution observability (progress/throughput reporting, not metrics):
    #: simulator events fired and host wall-clock seconds for this repetition.
    events_processed: int = 0
    wall_time_s: float = 0.0

    @property
    def packets_on_wire(self) -> int:
        return len(self.server_records)

    def canonical_encoding(self) -> Iterator[bytes]:
        """The bytes :meth:`fingerprint` hashes, in order.

        Exactly ``json.dumps(payload, sort_keys=True)`` of the deterministic
        fields (config as ``asdict``, capture as one dict per record), but
        written without building that tree: the config contributes its
        memoized sorted JSON, and each capture row is one ``%``-format
        (:func:`_encode_capture`). Every other field goes through
        ``json.dumps`` itself.
        """
        encoded = {
            key: json.dumps(value, sort_keys=True)
            for key, value in (
                ("seed", self.seed),
                ("completed", self.completed),
                ("duration_ns", self.duration_ns),
                ("goodput_mbps", self.goodput_mbps),
                ("dropped", self.dropped),
                ("injected_drops", self.injected_drops),
                ("expected_send_log", self.expected_send_log),
                ("cwnd_trace", self.cwnd_trace),
                ("queue_trace", self.queue_trace),
                ("qdisc_stats", self.qdisc_stats),
                ("server_stats", self.server_stats),
                ("object_completion_ns", self.object_completion_ns),
                ("impairment_stats", self.impairment_stats),
            )
        }
        encoded["config"] = self.config.canonical_json
        opener = "{"
        for key in sorted([*encoded, "server_records"]):
            if key == "server_records":
                yield f'{opener}"server_records": ['.encode()
                yield from _encode_capture(self.server_records)
                yield b"]"
            else:
                yield f'{opener}"{key}": {encoded[key]}'.encode()
            opener = ", "
        yield b"}"

    def fingerprint(self) -> str:
        """Stable digest of every *deterministic* field of this result.

        Covers config, seed, timings, traces, captures, and all counters;
        excludes execution observability (``wall_time_s``,
        ``events_processed``), which legitimately varies between hosts,
        worker counts, and cache hits. Two runs of the same (config, seed)
        must produce equal fingerprints regardless of serial/parallel/cached
        execution — the determinism test suite pins exactly that.

        Computed from the fields on every call (results are mutable and
        ``dataclasses.replace`` copies must digest fresh); callers that need
        it more than once per result pass it along.
        """
        digest = hashlib.sha256()
        for chunk in self.canonical_encoding():
            digest.update(chunk)
        return digest.hexdigest()

    def validate(self) -> None:
        """Check this result against the framework's conservation invariants.

        Raises :class:`~repro.errors.ValidationError` naming the violated
        invariant. The sweep layer calls this on every repetition before it
        is cached or summarized; it is exposed here so artifact consumers can
        re-check deserialized results.
        """
        from repro.framework.validate import validate_result

        validate_result(self)


class Experiment:
    """Builds and runs one repetition of a configured measurement."""

    def __init__(self, config: ExperimentConfig, seed: Optional[int] = None):
        config.validate()
        self.config = config
        self.seed = config.seed if seed is None else seed
        self.rngs = RngRegistry(self.seed)
        self.sim = Simulator()
        self.sniffer = Sniffer()
        # Datagram and GSO-buffer ids must be a pure function of this run,
        # not of earlier experiments in the same process (bit-identical
        # serial/parallel/cached results depend on it).
        reset_dgram_ids()
        reset_gso_ids()
        self._build()

    # -- assembly ------------------------------------------------------------

    def _build(self) -> None:
        cfg = self.config
        net = cfg.network

        # Client-side receive path (bottleneck emulation + ingress socket).
        self.client_sock = UdpSocket(
            self.sim, CLIENT_ADDR, CLIENT_PORT, rcvbuf_bytes=mib(50)
        )
        if net.bottleneck == "wifi":
            from repro.net.wifi import WifiBottleneck

            self.bottleneck = WifiBottleneck(
                self.sim,
                "wifi-bottleneck",
                phy_rate_bps=net.wifi_phy_rate_bps,
                access_overhead_ns=net.wifi_access_overhead_ns,
                max_aggregate=net.wifi_max_aggregate,
                queue_limit_bytes=net.buffer_bytes,
                delay_ns=net.one_way_delay_ns,
                sink=self.client_sock,
            )
        else:
            self.bottleneck = Bottleneck(
                self.sim,
                "bottleneck",
                rate_bps=net.bottleneck_rate_bps,
                queue_limit_bytes=net.buffer_bytes,
                burst_bytes=net.tbf_burst_bytes,
                delay_ns=net.one_way_delay_ns,
                ecn_mark_threshold_bytes=(net.buffer_bytes // 4 if cfg.ecn else None),
                sink=self.client_sock,
            )
        self.bottleneck.trace_queue = cfg.trace_queue
        # Forward-path fault injection sits between the capture tap and the
        # bottleneck: the sniffer still sees the sender's pacing untouched
        # (tap-before-bottleneck, as in the paper), while the client observes
        # the impaired path. Each stage draws from its own named per-rep
        # stream, so impairment randomness is independent per repetition and
        # identical across serial/parallel/cached execution.
        flap_target = self.bottleneck if net.bottleneck == "tbf" else None
        fwd_head, self.fwd_impairments, self.flappers = build_impairments(
            net.forward_impairments,
            self.sim,
            sink=self.bottleneck,
            rng_for=self.rngs.stream,
            direction="fwd",
            bottleneck=flap_target,
        )
        tap = FiberTap(self.sim, self.sniffer, sink=fwd_head)
        server_link = Link(
            self.sim, "server-link", net.link_rate_bps, propagation_ns=us(1), sink=tap
        )
        self.server_nic = Nic(
            self.sim,
            "server-nic",
            server_link,
            launchtime=(cfg.qdisc == "etf-offload"),
            rng=self.rngs.stream("nic"),
        )
        segmenter = GsoSegmenter(self.sim, sink=self.server_nic)
        self.segmenter = segmenter
        qdisc_params = {}
        if cfg.qdisc in ("etf", "etf-offload"):
            qdisc_params["delta_ns"] = cfg.etf_delta_ns
        self.qdisc = make_qdisc(
            cfg.qdisc if cfg.qdisc != "none" else "pfifo_fast",
            self.sim,
            sink=segmenter,
            rng=self.rngs.stream("qdisc"),
            **qdisc_params,
        )

        # Server egress socket.
        so_txtime = cfg.stack == "quiche"
        self.server_sock = UdpSocket(
            self.sim, SERVER_ADDR, SERVER_PORT, egress=self.qdisc, so_txtime=so_txtime
        )
        self.server_sock.connect(CLIENT_ADDR, CLIENT_PORT)

        # Client egress (ACK) path: 1 Gbit/s + 20 ms, no rate limit needed.
        from repro.kernel.qdisc.netem import NetemQdisc

        reverse_delay = NetemQdisc(
            self.sim,
            "reverse-netem",
            sink=self.server_sock,
            delay_ns=net.one_way_delay_ns,
            rng=self.rngs.stream("reverse-netem"),
        )
        # Reverse-path (ACK) fault injection sits between the client link and
        # the delay stage.
        rev_head, self.rev_impairments, _ = build_impairments(
            net.reverse_impairments,
            self.sim,
            sink=reverse_delay,
            rng_for=self.rngs.stream,
            direction="rev",
        )
        client_link = Link(
            self.sim, "client-link", net.link_rate_bps, propagation_ns=us(1), sink=rev_head
        )
        self.client_sock.egress = client_link
        self.client_sock.connect(SERVER_ADDR, SERVER_PORT)

        if cfg.stack == "tcp":
            self._build_tcp()
        else:
            self._build_quic()

        if self.qlog_trace is not None:
            trace = self.qlog_trace
            hook = lambda name, time_ns, data: trace.log(time_ns, name, **data)
            for stage in (*self.fwd_impairments, *self.rev_impairments):
                stage.on_event = hook

    def _gso_policy(self) -> GsoPolicy:
        if self.config.gso == "off":
            return GsoPolicy(enabled=False)
        return GsoPolicy(
            enabled=True,
            max_segments=self.config.gso_segments,
            paced=(self.config.gso == "paced"),
        )

    def _build_quic(self) -> None:
        cfg = self.config
        overrides = {}
        if cfg.stack == "quiche":
            overrides["gso"] = self._gso_policy()
            if cfg.spurious_rollback is not None:
                overrides["spurious_rollback"] = cfg.spurious_rollback
            if cfg.qdisc in ("etf", "etf-offload"):
                # ETF drops packets whose timestamp is in the past; senders
                # must stamp at least delta (plus slack) into the future.
                overrides["txtime_min_offset_ns"] = cfg.etf_delta_ns + us(100)
        if cfg.pacing_override is not None:
            overrides["pacing"] = cfg.pacing_override
        if cfg.client_ack_threshold is not None:
            overrides["client_ack_threshold"] = cfg.client_ack_threshold
        if cfg.client_max_ack_delay_ns is not None:
            overrides["client_max_ack_delay_ns"] = cfg.client_max_ack_delay_ns
        if cfg.bucket_packets is not None:
            overrides["bucket_packets"] = cfg.bucket_packets
        profile = profile_for(cfg.stack, cfg.cca, **overrides)
        self.profile = profile

        server_cc = make_cc(
            profile.cca,
            mtu=MTU_PAYLOAD,
            hystart=profile.hystart,
            spurious_rollback=profile.spurious_rollback,
            rollback_loss_threshold=profile.rollback_loss_threshold,
            bbr_params=profile.bbr_params,
        )
        server_cc.pacing_gain_factor = profile.pacing_gain
        if cfg.trace_cwnd:
            server_cc.enable_trace()
        self.server_cc = server_cc

        server_conn = Connection(
            "server",
            cc=server_cc,
            config=ConnectionConfig(
                mtu_payload=MTU_PAYLOAD,
                peer_max_data=profile.recv_conn_window,
                peer_max_stream_data=profile.recv_stream_window,
                recv_conn_window=mib(1),
                recv_stream_window=mib(1),
                fc_autotune=True,
                ecn=cfg.ecn,
            ),
        )
        client_conn = Connection(
            "client",
            cc=make_cc("newreno", mtu=MTU_PAYLOAD),
            config=ConnectionConfig(
                mtu_payload=MTU_PAYLOAD,
                recv_conn_window=profile.recv_conn_window,
                recv_stream_window=profile.recv_stream_window,
                fc_autotune=profile.fc_autotune,
                peer_max_data=mib(1),
                peer_max_stream_data=mib(1),
                ack_threshold=profile.client_ack_threshold,
                max_ack_delay_ns=profile.client_max_ack_delay_ns,
                ecn=cfg.ecn,
            ),
        )
        if cfg.qlog:
            from repro.quic.qlog import QlogTrace, attach_qlog

            self.qlog_trace = QlogTrace(f"{cfg.label} seed={self.seed}")
            attach_qlog(server_conn, self.qlog_trace)
        else:
            self.qlog_trace = None

        pacer = make_pacer(profile, MTU_PAYLOAD)
        object_size = cfg.file_size // cfg.objects
        self.server = ServerDriver(
            self.sim,
            server_conn,
            self.server_sock,
            profile,
            pacer,
            response_size=h3.response_stream_size(object_size),
            rng=self.rngs.stream("server-proc"),
        )
        self.client = ClientDriver(
            self.sim,
            client_conn,
            self.client_sock,
            rng=self.rngs.stream("client-proc"),
            request_count=cfg.objects,
        )
        self.tcp_sender = None
        self.tcp_receiver = None

    def _build_tcp(self) -> None:
        cfg = self.config
        from repro.cc.cubic import Cubic, CubicParams
        from repro.tcp.segment import TCP_MSS

        cc = make_cc(cfg.cca, mtu=TCP_MSS) if cfg.cca != "cubic" else Cubic(
            params=CubicParams(hystart=True, hystart_ack_train=True), mtu=TCP_MSS
        )
        if cfg.trace_cwnd:
            cc.enable_trace()
        self.server_cc = cc
        self.tcp_sender = TcpSender(self.sim, self.server_sock, cfg.file_size, cc=cc)
        self.tcp_receiver = TcpReceiver(self.sim, self.client_sock, cfg.file_size)
        self.server = None
        self.client = None
        self.profile = None
        self.qlog_trace = None

    # -- run -----------------------------------------------------------------

    def run(self) -> ExperimentResult:
        wall_start = time.perf_counter()
        cfg = self.config
        if cfg.stack == "tcp":
            self.tcp_sender.start()
            is_done = lambda: self.tcp_receiver.done
        else:
            self.client.start()
            is_done = lambda: self.client.done

        chunk = ms(200)
        while not is_done() and self.sim.now < cfg.max_sim_time_ns:
            before = self.sim.events_processed
            self.sim.run(until=self.sim.now + chunk)
            if self.sim.events_processed == before and self.sim.peek_time() is None:
                break  # stalled: no pending events and not complete

        completed = is_done()
        if cfg.stack == "tcp":
            start = self.tcp_sender.started_at or 0
            end = self.tcp_receiver.completed_at or self.sim.now
        else:
            start = self.client.request_sent_at or 0
            end = self.client.completed_at or self.sim.now
        duration = max(end - start, 1)

        records = self.sniffer.from_host(SERVER_ADDR)
        object_times = (
            {sid: t - start for sid, t in self.client.object_completed_at.items()}
            if self.client
            else {}
        )
        expected_log = list(self.server.expected_send_log) if self.server else []
        server_stats = self._server_stats()
        impairment_stats = {
            stage.name: stage.stats.as_dict()
            for stage in (*self.fwd_impairments, *self.rev_impairments)
        }
        injected = sum(s["injected_drops"] for s in impairment_stats.values())
        return ExperimentResult(
            config=cfg,
            seed=self.seed,
            completed=completed,
            duration_ns=duration,
            goodput_mbps=goodput_mbps(cfg.file_size, duration),
            dropped=self.bottleneck.dropped,
            server_records=records,
            expected_send_log=expected_log,
            cwnd_trace=self.server_cc.cwnd_trace,
            queue_trace=list(self.bottleneck.queue_trace),
            qdisc_stats=self.qdisc.stats.as_dict(),
            server_stats=server_stats,
            object_completion_ns=object_times,
            injected_drops=injected,
            impairment_stats=impairment_stats,
            events_processed=self.sim.events_processed,
            wall_time_s=time.perf_counter() - wall_start,
        )

    def _server_stats(self) -> dict:
        if self.config.stack == "tcp":
            return {
                "retransmissions": self.tcp_sender.retransmissions,
                "acks_received": 0,
            }
        conn = self.server.conn
        return {
            "packets_sent": conn.packets_sent,
            "stream_bytes_retx": conn.stream_bytes_retx,
            "spurious_loss_events": conn.spurious_loss_events,
            "lost_packets_total": conn.recovery.lost_packets_total,
            "congestion_events": conn.cc.congestion_events,
            "rollbacks": getattr(conn.cc, "rollbacks", 0),
            "gso_buffers": self.segmenter.buffers_split,
        }


def run_experiment(config: ExperimentConfig, seed: Optional[int] = None) -> ExperimentResult:
    """Convenience: build and run one repetition."""
    return Experiment(config, seed=seed).run()
