"""The Figure-1 testbed: the one place the topology is wired.

Topology (measurement direction, left to right)::

    server app/stack -> UDP socket -> qdisc -> GSO segmenter -> NIC (+LaunchTime)
        -> 1 Gbit/s link -> optical tap (sniffer) -> TBF 40 Mbit/s (2xBDP buffer)
        -> netem +20 ms -> client socket -> client stack

    client ACKs -> 1 Gbit/s link -> netem +20 ms -> server socket

The sniffer sits *before* the bottleneck, so captured timestamps show the
server's pacing, not the shaper's.

:class:`Testbed` is the shared half (tap to bottleneck, and the ACK path);
:class:`WiredFlow` is one sender host, its client socket and the application
endpoints, described by an :class:`ExperimentConfig`. The single-flow
``Experiment`` delivers both paths straight to its one flow's sockets, the
``MultiFlowExperiment`` to a port demux per direction. Whatever else differs
between them (ports, RNG stream names) is an argument.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.cc.factory import make_cc
from repro.framework.config import ExperimentConfig, NetworkConfig
from repro.kernel.gso import GsoSegmenter
from repro.kernel.qdisc import make_qdisc
from repro.kernel.qdisc.netem import NetemQdisc
from repro.kernel.socket import UdpSocket, reset_gso_ids
from repro.net.bottleneck import Bottleneck
from repro.net.impairments import build_impairments
from repro.net.link import Link
from repro.net.nic import Nic
from repro.net.packet import PacketSink, reset_dgram_ids
from repro.net.tap import FiberTap, Sniffer
from repro.net.wifi import WifiBottleneck
from repro.pacing.gso_policy import GsoPolicy
from repro.quic import h3
from repro.quic.connection import Connection, ConnectionConfig
from repro.sim.engine import Simulator
from repro.sim.random import RngRegistry
from repro.stacks.base import ServerDriver, StackProfile, make_pacer
from repro.stacks.client import ClientDriver
from repro.stacks.profiles import profile_for
from repro.tcp.receiver import TcpReceiver
from repro.tcp.segment import TCP_MSS
from repro.tcp.sender import TcpSender
from repro.units import mib, us

SERVER_ADDR = "10.0.0.1"
CLIENT_ADDR = "10.0.0.2"

#: QUIC max UDP payload used throughout (paper-like 1252-byte packets).
MTU_PAYLOAD = 1252

_ETF_QDISCS = ("etf", "etf-offload")


class Testbed:
    """The paths every flow shares: tap -> forward impairments -> bottleneck
    (+ one-way delay), and reverse link -> reverse impairments -> netem."""

    def __init__(
        self,
        sim: Simulator,
        rngs: RngRegistry,
        net: NetworkConfig,
        sniffer: Sniffer,
        ecn: bool = False,
    ):
        self.sim = sim
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
        # ACK path: 1 Gbit/s plus the one-way delay, no rate limit needed;
        # its fault injection sits between the link and the delay stage.
        self._reverse_netem = NetemQdisc(
            sim,
            "reverse-netem",
            delay_ns=net.one_way_delay_ns,
            rng=rngs.stream("reverse-netem"),
        )
        rev_head, self.rev_impairments, _ = build_impairments(
            net.reverse_impairments,
            sim,
            sink=self._reverse_netem,
            rng_for=rngs.stream,
            direction="rev",
        )
        self.reverse_link = Link(
            sim, "reverse-link", net.link_rate_bps, propagation_ns=us(1), sink=rev_head
        )

    def deliver_to(self, forward_sink: PacketSink, reverse_sink: PacketSink) -> None:
        """Terminate the two paths: at one flow's client and server sockets,
        or at a port demux per direction."""
        self.bottleneck.sink = forward_sink
        self._reverse_netem.sink = reverse_sink


class WiredFlow:
    """One flow's own half of the topology: the client socket, the sender
    host (socket -> qdisc -> GSO segmenter -> NIC -> access link -> tap) and
    the endpoints — a QUIC ``server``/``client`` driver pair with the
    server's ``profile``, or a ``tcp_sender``/``tcp_receiver`` pair (the
    other pair is None).

    ``rng_for`` maps a component role (``"nic"``, ``"qdisc"``, ``"server"``,
    ``"client"``) to its random stream.
    """

    def __init__(
        self,
        testbed: Testbed,
        cfg: ExperimentConfig,
        name: str,
        server_port: int,
        client_port: int,
        rng_for: Callable[[str], random.Random],
    ):
        sim = testbed.sim
        self.client_sock = UdpSocket(
            sim, CLIENT_ADDR, client_port, egress=testbed.reverse_link, rcvbuf_bytes=mib(50)
        )
        self.client_sock.connect(SERVER_ADDR, server_port)

        self.link = Link(
            sim, f"{name}-link", cfg.network.link_rate_bps, propagation_ns=us(1), sink=testbed.tap
        )
        self.nic = Nic(
            sim,
            f"{name}-nic",
            self.link,
            launchtime=(cfg.qdisc == "etf-offload"),
            rng=rng_for("nic"),
        )
        self.segmenter = GsoSegmenter(sim, sink=self.nic)
        qdisc_params = {}
        if cfg.qdisc in _ETF_QDISCS:
            qdisc_params["delta_ns"] = cfg.etf_delta_ns
        self.qdisc = make_qdisc(
            cfg.qdisc,
            sim,
            sink=self.segmenter,
            rng=rng_for("qdisc"),
            **qdisc_params,
        )
        self.server_sock = UdpSocket(
            sim, SERVER_ADDR, server_port, egress=self.qdisc, so_txtime=(cfg.stack == "quiche")
        )
        self.server_sock.connect(CLIENT_ADDR, client_port)

        self.profile = self.server = self.client = None
        self.tcp_sender = self.tcp_receiver = None
        if cfg.stack == "tcp":
            self._wire_tcp(sim, cfg)
        else:
            self._wire_quic(sim, cfg, rng_for)

    def _wire_tcp(self, sim: Simulator, cfg: ExperimentConfig) -> None:
        # Kernel CUBIC (HyStart with ACK trains) is the sender's own default.
        cc = None if cfg.cca == "cubic" else make_cc(cfg.cca, mtu=TCP_MSS)
        self.tcp_sender = TcpSender(sim, self.server_sock, cfg.file_size, cc=cc)
        self.tcp_receiver = TcpReceiver(sim, self.client_sock, cfg.file_size)
        self.server_cc = self.tcp_sender.cc

    def _wire_quic(
        self, sim: Simulator, cfg: ExperimentConfig, rng_for: Callable[[str], random.Random]
    ) -> None:
        profile = self.profile = _quic_profile(cfg)
        self.server_cc = make_cc(
            profile.cca,
            mtu=MTU_PAYLOAD,
            hystart=profile.hystart,
            spurious_rollback=profile.spurious_rollback,
            rollback_loss_threshold=profile.rollback_loss_threshold,
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
            rng=rng_for("server"),
        )
        self.client = ClientDriver(
            sim, client_conn, self.client_sock, rng=rng_for("client"), request_count=cfg.objects
        )


def _quic_profile(cfg: ExperimentConfig) -> StackProfile:
    """The stack's profile with the config's overrides applied."""
    overrides = {}
    if cfg.stack == "quiche":
        overrides["gso"] = GsoPolicy(
            enabled=(cfg.gso != "off"),
            max_segments=cfg.gso_segments,
            paced=(cfg.gso == "paced"),
        )
        if cfg.spurious_rollback is not None:
            overrides["spurious_rollback"] = cfg.spurious_rollback
        if cfg.qdisc in _ETF_QDISCS:
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
    return profile_for(cfg.stack, cfg.cca, **overrides)
