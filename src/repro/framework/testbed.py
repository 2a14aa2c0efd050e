"""The Figure-1 testbed: the one place the topology is wired.

Topology (measurement direction, left to right)::

    server app/stack -> UDP socket -> qdisc -> GSO segmenter -> NIC (+LaunchTime)
        -> 1 Gbit/s link -> optical tap (sniffer) -> TBF 40 Mbit/s (2xBDP buffer)
        -> netem +20 ms -> client socket -> client stack

    client ACKs -> 1 Gbit/s link (+20 ms propagation) -> reverse impairments
        -> server socket

The sniffer sits *before* the bottleneck, so captured timestamps show the
server's pacing, not the shaper's.

:class:`Testbed` is the shared half (tap to bottleneck, and the ACK path);
:class:`WiredFlow` is one flow of a run: a sender host, its client socket and
the application endpoints, described by an :class:`ExperimentConfig`, and the
one place that tells TCP from QUIC. The run
(:class:`~repro.framework.multiflow.MultiFlowExperiment`) wires N of them and
ends the shared paths at flow 0's sockets when N = 1, else at a port demux
per direction. A flow's index fixes its ports and RNG stream names.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, Optional

from repro.cc.factory import make_cc
from repro.framework.config import ExperimentConfig, NetworkConfig
from repro.kernel.gso import GsoSegmenter
from repro.kernel.qdisc import make_qdisc
from repro.kernel.qdisc.netem import NetemQdisc
from repro.kernel.socket import UdpSocket, reset_gso_ids
from repro.metrics.goodput import goodput_mbps
from repro.net.bottleneck import Bottleneck
from repro.net.impairments import EventHook, build_impairments
from repro.net.link import Link
from repro.net.nic import Nic
from repro.net.packet import FlowTuple, PacketSink, reset_dgram_ids
from repro.net.tap import FiberTap, Sniffer
from repro.net.wifi import WifiBottleneck
from repro.pacing.gso_policy import GsoPolicy
from repro.quic import h3
from repro.quic.connection import Connection, ConnectionConfig
from repro.sim.engine import Simulator
from repro.sim.random import RngRegistry
from repro.stacks.base import SendLog, ServerDriver, StackProfile, make_pacer
from repro.stacks.client import ClientDriver
from repro.stacks.profiles import profile_for
from repro.tcp.receiver import TcpReceiver
from repro.tcp.segment import TCP_MSS
from repro.tcp.sender import TcpSender
from repro.units import mib, us

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.framework.multiflow import FlowSpec

SERVER_ADDR = "10.0.0.1"
CLIENT_ADDR = "10.0.0.2"

#: QUIC max UDP payload used throughout (paper-like 1252-byte packets).
MTU_PAYLOAD = 1252

_ETF_QDISCS = ("etf", "etf-offload")

#: Flow 0 is the paper's one connection: its ports and the RNG stream of each
#: component role are part of every single-flow golden. A role's stream is
#: seeded only for a component that draws from it: the NIC under LaunchTime,
#: the qdisc under FQ and ETF, and the two processes of a QUIC flow.
_FLOW0_PORTS = (443, 40000)
_FLOW0_STREAMS = {"nic": "nic", "qdisc": "qdisc", "server": "server-proc", "client": "client-proc"}
#: Flow ``i >= 1`` gets ports ``BASE + i`` and the streams ``flow{i}-<role>``.
BASE_SERVER_PORT = 4433
BASE_CLIENT_PORT = 50000
#: Beyond this many flows the server port range would reach the client range.
MAX_FLOWS = BASE_CLIENT_PORT - BASE_SERVER_PORT


class Testbed:
    """The paths every flow shares: tap -> forward impairments -> bottleneck
    (+ one-way delay), and reverse link (+ one-way delay) -> reverse
    impairments."""

    def __init__(
        self,
        sim: Simulator,
        rngs: RngRegistry,
        net: NetworkConfig,
        sniffer: Sniffer,
        ecn: bool = False,
    ):
        self.sim = sim
        self.rngs = rngs
        #: Per-flow observers of the impairment stages, keyed by the 4-tuple
        #: of the datagram a stage drops (a flow's qlog trace).
        self.observers: Dict[FlowTuple, EventHook] = {}
        # Datagram and GSO-buffer ids must be a pure function of this run,
        # not of earlier experiments in the same process (bit-identical
        # serial/parallel/cached results depend on it).
        reset_dgram_ids()
        reset_gso_ids()
        if net.bottleneck == "wifi":
            self.bottleneck = WifiBottleneck(
                sim,
                "wifi-bottleneck",
                phy_rate_bps=net.wifi_phy_rate_bps,
                access_overhead_ns=net.wifi_access_overhead_ns,
                max_aggregate=net.wifi_max_aggregate,
                queue_limit_bytes=net.buffer_bytes,
                delay_ns=net.one_way_delay_ns,
            )
        else:
            self.bottleneck = Bottleneck(
                sim,
                "bottleneck",
                rate_bps=net.bottleneck_rate_bps,
                queue_limit_bytes=net.buffer_bytes,
                burst_bytes=net.tbf_burst_bytes,
                delay_ns=net.one_way_delay_ns,
                ecn_mark_threshold_bytes=(net.buffer_bytes // 4 if ecn else None),
            )
        # Forward-path fault injection sits between the capture tap and the
        # bottleneck: the sniffer still sees the senders' pacing untouched
        # (tap-before-bottleneck, as in the paper), while the clients observe
        # the impaired path. Each stage draws from its own named per-rep
        # stream, so impairment randomness is independent per repetition and
        # identical across serial/parallel/cached execution. Rate flaps
        # modulate the TBF from the events they schedule here, ahead of
        # anything else in the calendar.
        fwd_head, self.fwd_impairments, _ = build_impairments(
            net.forward_impairments,
            sim,
            sink=self.bottleneck,
            rng_for=rngs.stream,
            direction="fwd",
            bottleneck=self.bottleneck if net.bottleneck == "tbf" else None,
        )
        self.tap = FiberTap(sim, sniffer, sink=fwd_head)
        # ACK path: 1 Gbit/s, its one-way delay the link's propagation; the
        # reverse impairments act at its far end (DESIGN 7.4), in front of
        # whatever ``deliver_to`` names.
        rev_head, self.rev_impairments, _ = build_impairments(
            net.reverse_impairments, sim, sink=None, rng_for=rngs.stream, direction="rev"
        )
        self.reverse_link = Link(
            sim,
            "reverse-link",
            net.link_rate_bps,
            propagation_ns=us(1) + net.one_way_delay_ns,
            sink=rev_head,
        )
        for stage in (*self.fwd_impairments, *self.rev_impairments):
            stage.observers = self.observers

    def deliver_to(self, forward_sink: PacketSink, reverse_sink: PacketSink) -> None:
        """Terminate the two paths: at one flow's client socket and
        ``ack_sink``, or at a port demux per direction."""
        self.bottleneck.sink = forward_sink
        (self.rev_impairments[-1] if self.rev_impairments else self.reverse_link).sink = reverse_sink


class WiredFlow:
    """Flow ``index`` of a run: the client socket, the sender host (socket ->
    qdisc -> GSO segmenter -> NIC -> access link -> tap), the endpoints — a
    QUIC ``server``/``client`` driver pair with the server's ``profile``, or
    a ``tcp_sender``/``tcp_receiver`` pair (the other pair is None) — and,
    for ``spec.extra_rtt_ns``, a delay stage in front of the server socket
    (``ack_sink``, where the reverse path ends for this flow).

    It gathers the flow's own outputs (:meth:`outputs`) and, when ``cfg``
    asks, its traces: the server's cwnd trace and a qlog trace (``qlog``)
    that also records the shared stages' drops of this flow's datagrams.
    With ``per_packet`` its server logs each packet's expected send time;
    without, the log keeps nothing.
    """

    def __init__(
        self, testbed: Testbed, index: int, spec: "FlowSpec", cfg: ExperimentConfig, per_packet: bool
    ):
        sim = testbed.sim
        self.index, self.spec = index, spec
        if index == 0:
            name, streams = "server", _FLOW0_STREAMS
            self.server_port, self.client_port = _FLOW0_PORTS
        else:
            name = f"flow{index}"
            streams = {role: f"{name}-{role}" for role in _FLOW0_STREAMS}
            self.server_port = BASE_SERVER_PORT + index
            self.client_port = BASE_CLIENT_PORT + index
        #: The names of the RNG streams this flow may draw from.
        self.streams = tuple(streams.values())
        rng = testbed.rngs.stream
        self.client_sock = UdpSocket(
            sim, CLIENT_ADDR, self.client_port, egress=testbed.reverse_link, rcvbuf_bytes=mib(50)
        )
        self.client_sock.connect(SERVER_ADDR, self.server_port)

        self.link = Link(
            sim, f"{name}-link", cfg.network.link_rate_bps, propagation_ns=us(1), sink=testbed.tap
        )
        launchtime = cfg.qdisc == "etf-offload"
        self.nic = Nic(
            sim,
            f"{name}-nic",
            self.link,
            launchtime=launchtime,
            rng=rng(streams["nic"]) if launchtime else None,
        )
        self.segmenter = GsoSegmenter(sim, sink=self.nic)
        qdisc_params = {}
        if cfg.qdisc in _ETF_QDISCS:
            qdisc_params["delta_ns"] = cfg.etf_delta_ns
        self.qdisc = make_qdisc(
            cfg.qdisc,
            sim,
            sink=self.segmenter,
            rng=rng(streams["qdisc"]) if cfg.qdisc != "none" else None,
            **qdisc_params,
        )
        self.server_sock = UdpSocket(
            sim, SERVER_ADDR, self.server_port, egress=self.qdisc, so_txtime=(cfg.stack == "quiche")
        )
        self.server_sock.connect(CLIENT_ADDR, self.client_port)
        # Heterogeneous RTT: extra one-way delay on this flow's reverse path
        # only, so the shared forward queue stays untouched.
        self.ack_sink: PacketSink = self.server_sock
        if spec.extra_rtt_ns > 0:
            self.ack_sink = NetemQdisc(
                sim, f"rtt-{index}", sink=self.server_sock, delay_ns=spec.extra_rtt_ns
            )

        self.file_size = cfg.file_size
        self.objects = cfg.objects
        self.profile = self.server = self.client = None
        self.tcp_sender = self.tcp_receiver = None
        if cfg.stack == "tcp":
            self._wire_tcp(sim, cfg)
        else:
            self._wire_quic(sim, cfg, rng(streams["server"]), rng(streams["client"]), per_packet)

        if cfg.trace_cwnd:
            self.server_cc.enable_trace()
        self.qlog = None
        if cfg.qlog and self.server is not None:
            from repro.quic.qlog import QlogTrace, attach_qlog

            trace = self.qlog = QlogTrace(f"{cfg.label} seed={testbed.rngs.seed}")
            attach_qlog(self.server.conn, trace)
            hook = lambda name, time_ns, data: trace.log(time_ns, name, **data)
            testbed.observers[self.server_sock.flow] = hook
            testbed.observers[self.client_sock.flow] = hook
        #: This flow's :meth:`outputs`, frozen by :meth:`retire`.
        self.frozen: Optional[dict] = None

    # -- the transfer, whichever endpoint pair carries it -------------------

    def start(self) -> None:
        """Open the transfer: the TCP sender's first flight, or the QUIC
        client's handshake and request."""
        if self.tcp_sender is not None:
            self.tcp_sender.start()
        else:
            self.client.start()

    @property
    def done(self) -> bool:
        """The receiver holds the whole file."""
        if self.frozen is not None:
            return self.frozen["completed"]
        if self.tcp_receiver is not None:
            return self.tcp_receiver.done
        return self.client.done

    def outputs(self, now: int) -> dict:
        """This flow's own results, as :class:`FlowResult` fields, frozen
        once retired. The transfer runs from the sender's start (TCP) or the
        request (QUIC), else ``spec.start_ns``, to completion, else ``now``
        (at least 1 ns); goodput is from the application bytes delivered in
        order."""
        if self.frozen is not None:
            return self.frozen
        completed = self.done
        received = self.file_size  # the receiver holds the whole file once done
        if self.tcp_sender is not None:
            start, end = self.tcp_sender.started_at, self.tcp_receiver.completed_at
            if not completed:
                # rcv_nxt is the contiguous in-order frontier; the FIN carries
                # no payload, so it never exceeds the file size.
                received = min(self.tcp_receiver.rcv_nxt, self.file_size)
            server_stats = {"retransmissions": self.tcp_sender.retransmissions, "acks_received": 0}
            expected, objects = SendLog(), {}
        else:
            start, end = self.client.request_sent_at, self.client.completed_at
            if not completed:
                # Each response's body bytes in order, past its HTTP/3 framing
                # (HEADERS + DATA frame header).
                body = self.file_size // self.objects
                prefix = len(h3.encode_response_prefix(body))
                streams = self.client.conn.recv_streams
                received = sum(
                    max(0, min(streams[sid].delivered - prefix, body))
                    for sid in self.client.request_stream_ids
                    if sid in streams
                )
            conn = self.server.conn
            server_stats = {
                "packets_sent": conn.packets_sent,
                "stream_bytes_retx": conn.stream_bytes_retx,
                "spurious_loss_events": conn.spurious_loss_events,
                "lost_packets_total": conn.recovery.lost_packets_total,
                "congestion_events": conn.cc.congestion_events,
                "rollbacks": getattr(conn.cc, "rollbacks", 0),
                "gso_buffers": self.segmenter.buffers_split,
            }
            expected = self.server.expected_send_log
            objects = self.client.object_completed_at
        start = start or self.spec.start_ns
        duration = max(end or now, start + 1) - start
        return {
            "completed": completed,
            "duration_ns": duration,
            "goodput_mbps": goodput_mbps(received, duration),
            "bytes_received": received,
            "start_ns": self.spec.start_ns,
            "expected_send_log": expected,
            "cwnd_trace": self.server_cc.cwnd_trace,
            "qdisc_stats": self.qdisc.stats.as_dict(),
            "server_stats": server_stats,
            "object_completion_ns": {sid: t - start for sid, t in objects.items()},
        }

    def retire(self, now: int) -> None:
        """Churn teardown: freeze :meth:`outputs`, silence both endpoints
        (cancel every timer they could re-arm) and drop the live objects, so
        a retired flow keeps only its outputs."""
        self.frozen = self.outputs(now)
        if self.tcp_sender is not None:
            self.tcp_sender.detach()
            self.tcp_receiver.detach()
        else:
            self.server.detach()
            self.client.detach()
        self.client_sock = self.server_sock = self.ack_sink = self.link = self.nic = None
        self.segmenter = self.qdisc = self.server_cc = self.profile = None
        self.server = self.client = self.tcp_sender = self.tcp_receiver = None

    def _wire_tcp(self, sim: Simulator, cfg: ExperimentConfig) -> None:
        # Kernel CUBIC (HyStart with ACK trains) is the sender's own default.
        cc = None if cfg.cca == "cubic" else make_cc(cfg.cca, mtu=TCP_MSS)
        self.tcp_sender = TcpSender(sim, self.server_sock, cfg.file_size, cc=cc)
        self.tcp_receiver = TcpReceiver(sim, self.client_sock, cfg.file_size)
        self.server_cc = self.tcp_sender.cc

    def _wire_quic(
        self,
        sim: Simulator,
        cfg: ExperimentConfig,
        server_rng: random.Random,
        client_rng: random.Random,
        per_packet: bool,
    ) -> None:
        profile = self.profile = _quic_profile(cfg)
        self.server_cc = make_cc(
            profile.cca,
            mtu=MTU_PAYLOAD,
            spurious_rollback=profile.spurious_rollback,
            bbr_params=profile.bbr_params,
        )
        self.server_cc.pacing_gain_factor = profile.pacing_gain
        server_conn = Connection(
            "server",
            cc=self.server_cc,
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
        self.server = ServerDriver(
            sim,
            server_conn,
            self.server_sock,
            profile,
            make_pacer(profile, MTU_PAYLOAD),
            response_size=h3.response_stream_size(cfg.file_size // cfg.objects),
            rng=server_rng,
            log_sends=per_packet,
        )
        self.client = ClientDriver(
            sim, client_conn, self.client_sock, rng=client_rng, request_count=cfg.objects
        )


def _quic_profile(cfg: ExperimentConfig) -> StackProfile:
    """The stack's profile with the config's params, plus what quiche's
    send path takes from the host: the GSO policy and, under ETF, the
    timestamp headroom."""
    profile = profile_for(cfg.stack, cfg.cca, cfg.params)
    if cfg.stack != "quiche":
        return profile
    gso = GsoPolicy(
        enabled=(cfg.gso != "off"), max_segments=cfg.gso_segments, paced=(cfg.gso == "paced")
    )
    # ETF drops packets whose timestamp is in the past; senders must stamp
    # at least delta (plus slack) into the future.
    offset = cfg.etf_delta_ns + us(100) if cfg.qdisc in _ETF_QDISCS else 0
    return replace(profile, gso=gso, txtime_min_offset_ns=offset)
