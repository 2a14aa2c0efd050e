"""Stack profile definition and the server-side driver.

The :class:`ServerDriver` is the "application + library event loop" around a
:class:`~repro.quic.connection.Connection`. Its send strategy — chosen by the
profile's ``pacing`` mode — is where the paper's three approaches live:

* ``"txtime"`` (quiche): build every sendable packet now, stamp each with the
  pacer's departure timestamp, and hand the batch to the kernel (sendmmsg or
  GSO). Actual spacing is the qdisc's job; with a timestamp-blind qdisc the
  batch hits the wire back-to-back.
* ``"app_interval"`` (ngtcp2): send one packet at a time, sleeping on the
  event-loop timer until each packet's computed departure time.
* ``"leaky_bucket"`` (picoquic): send whenever bucket credit is available;
  credit banks while waiting, so coarse timers convert directly into bursts.
* ``"none"``: write whatever the window allows immediately.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.cc.bbr import BbrParams
from repro.errors import ConfigError
from repro.kernel.socket import SendSpec, UdpSocket
from repro.pacing import IntervalPacer, LeakyBucketPacer, NullPacer, Pacer
from repro.pacing.gso_policy import GsoPolicy
from repro.quic.connection import Connection
from repro.quic.stream import DataSource
from repro.sim.clock import TimerModel, HIGHRES_TIMER
from repro.sim.engine import Simulator
from repro.sim.process import SimProcess
from repro.units import mib, ms, us

PACING_MODES = ("txtime", "app_interval", "leaky_bucket", "none")

#: Safety cap on packets produced in one wake-up.
MAX_PACKETS_PER_WAKEUP = 512


@dataclass(frozen=True)
class StackProfile:
    """Everything that makes a library behave like itself."""

    name: str
    pacing: str = "none"
    cca: str = "cubic"
    timer_model: TimerModel = HIGHRES_TIMER
    #: Max datagrams per sendmmsg batch when GSO is off.
    send_batch: int = 16
    gso: GsoPolicy = GsoPolicy(enabled=False)
    so_txtime: bool = False
    #: Receiver flow-control configuration (used by the peer *client* too).
    recv_conn_window: int = mib(15)
    recv_stream_window: int = mib(6)
    fc_autotune: bool = True
    #: CUBIC quirks.
    hystart: bool = True
    spurious_rollback: bool = False
    rollback_loss_threshold: int = 5
    #: BBR variant.
    bbr_params: Optional[BbrParams] = None
    #: Leaky-bucket depth (packets).
    bucket_packets: int = 17
    #: Interval-pacer initial burst budget (bytes).
    pacer_burst_bytes: int = 0
    #: picoquic loss-based quirk: on ACK wake-ups, defer sending to the send
    #: timer unless at least this many packets of credit are banked.
    ack_send_threshold_packets: int = 0
    #: Multiplier on cwnd/srtt for the pacing rate (RFC 9002 suggests a
    #: surplus; picoquic's loss-based bucket refills at ~1x).
    pacing_gain: float = 1.25
    #: txtime mode: how far into the future the app is willing to stamp and
    #: hand packets to the kernel before going back to sleep. Bounds both the
    #: burst size without a timestamp-aware qdisc and the no-qdisc precision.
    txtime_lookahead_ns: int = ms(2)
    #: txtime mode: minimum headroom added to every timestamp. Required with
    #: the ETF qdisc, which *drops* packets whose timestamp is not at least
    #: ``delta`` in the future when they reach the queue.
    txtime_min_offset_ns: int = 0
    #: The library's example *client* ACK policy (drives the server's ACK
    #: clock). picoquic implements the ACK-frequency extension and
    #: acknowledges roughly every RTT/4, which is what turns its banked
    #: leaky-bucket credit into periodic 16-17-packet bursts.
    client_ack_threshold: int = 2
    client_max_ack_delay_ns: int = ms(25)

    def validate(self) -> None:
        if self.pacing not in PACING_MODES:
            raise ConfigError(f"unknown pacing mode {self.pacing!r}")


class ServerDriver(SimProcess):
    """Event loop around the server connection."""

    def __init__(
        self,
        sim: Simulator,
        conn: Connection,
        socket: UdpSocket,
        profile: StackProfile,
        pacer: Pacer,
        response_size: int,
        rng: Optional[random.Random] = None,
    ):
        super().__init__(sim, f"server-{profile.name}", profile.timer_model, rng)
        profile.validate()
        self.conn = conn
        self.socket = socket
        self.profile = profile
        self.pacer = pacer
        self.response_size = response_size
        self.response_started = False
        self._responded: set[int] = set()
        socket.on_readable = self.wake_now
        #: (packet_number, expected_txtime) pairs for the precision metric.
        self.expected_send_log: List[tuple[int, int]] = []
        self._pacer_deadline: Optional[int] = None

    # -- event loop ---------------------------------------------------------

    def on_wakeup(self) -> None:
        now = self.sim.now
        conn = self.conn
        socket = self.socket
        woke_by_ack = bool(socket.rx)
        if woke_by_ack:
            for dgram in socket.recv_all():
                conn.on_datagram(dgram.payload, now, dgram.ecn)
        conn.on_timeout(now)
        if len(self._responded) < len(conn.recv_streams):  # a request is unanswered
            self._maybe_start_response()
        self._do_send(now, on_ack_wake=woke_by_ack)
        self._rearm(now)

    def _maybe_start_response(self) -> None:
        for sid, stream in self.conn.recv_streams.items():
            if stream.complete and sid not in self._responded:
                self._responded.add(sid)
                self.conn.open_send_stream(sid, DataSource(self.response_size))
                self.response_started = True

    def _rearm(self, now: int) -> None:
        deadline = self.conn.next_timeout(now)
        pacer = self._pacer_deadline
        if pacer is not None and (deadline is None or pacer < deadline):
            deadline = pacer
        if deadline is not None:
            self.arm_timer(deadline if deadline > now else now)

    # -- send strategies ---------------------------------------------------------

    def _do_send(self, now: int, on_ack_wake: bool) -> None:
        self._pacer_deadline = None
        self.pacer.update_rate(self.conn.pacing_rate_bps(), now)
        mode = self.profile.pacing
        if mode == "txtime":
            self._send_txtime(now)
        elif mode in ("app_interval", "leaky_bucket"):
            self._send_app_paced(now, on_ack_wake)
        else:
            self._send_unpaced(now)

    def _send_unpaced(self, now: int) -> None:
        specs = self._build_specs(now, stamp_txtime=False)
        self._write(specs)

    def _send_txtime(self, now: int) -> None:
        # Stock GSO defers until a full buffer is available (maximum batching,
        # maximum burstiness). With the paced-GSO patch the kernel restores
        # the spacing anyway, so the send loop behaves like the GSO-off one.
        if (
            self.profile.gso.enabled
            and not self.profile.gso.paced
            and self._defer_for_full_buffer(now)
        ):
            return
        specs = self._build_specs(now, stamp_txtime=True)
        self._write(specs)

    def _defer_for_full_buffer(self, now: int) -> bool:
        """GSO batching: wait until a full buffer's worth of window is
        available (the batching that makes GSO worthwhile, and bursty).

        Never defers when it could deadlock: without packets in flight no ACK
        will arrive to free more window, and small remainders at the end of
        the stream go out as short buffers.
        """
        conn = self.conn
        mtu = conn.config.mtu_payload
        buffer_bytes = self.profile.gso.max_segments * mtu
        room = conn.cc.can_send(conn.recovery.bytes_in_flight)
        pending_new = sum(s.new_bytes_available for s in conn.send_streams.values())
        has_retx = any(s.has_retx for s in conn.send_streams.values())
        if has_retx or pending_new < buffer_bytes:
            return False
        if conn.recovery.bytes_in_flight == 0 or conn.probe_packets_pending:
            return False
        if conn.ack_mgr.ack_pending and conn.ack_mgr.should_ack_now(now):
            return False
        return room < buffer_bytes

    def _build_specs(self, now: int, stamp_txtime: bool) -> List[SendSpec]:
        specs: List[SendSpec] = []
        conn = self.conn
        pacer = self.pacer
        profile = self.profile
        mtu = conn.config.mtu_payload
        min_offset = profile.txtime_min_offset_ns
        ecn = 2 if conn.config.ecn else 0
        lookahead = profile.txtime_lookahead_ns
        if profile.gso.enabled:
            # With GSO the app fills whole buffers before sleeping, so it is
            # willing to queue at least two buffers' worth into the kernel.
            lookahead = max(
                lookahead,
                2 * profile.gso.max_segments * pacer.interval_ns(mtu),
            )
        horizon = now + lookahead
        while len(specs) < MAX_PACKETS_PER_WAKEUP and conn.wants_to_send(now):
            if stamp_txtime:
                release = pacer.release_time(now, mtu)
                if release > horizon:
                    # Enough queued in the kernel; wake again near the horizon.
                    self._pacer_deadline = release - lookahead
                    break
            built = conn.build_packet(now)
            if built is None:
                break
            size = built.size
            txtime = None
            expected = now
            if stamp_txtime and built.ack_eliciting:
                # Nothing touched the pacer since the horizon check above.
                txtime = release if size == mtu else pacer.release_time(now, size)
                if min_offset:
                    txtime = max(txtime, now + min_offset)
                pacer.commit(txtime, size)
                expected = txtime
            conn.on_packet_sent(built, now)
            self.expected_send_log.append((built.pn, expected))
            specs.append(SendSpec(built.packet, size, txtime, expected, built.pn, ecn))
        return specs

    def _write(self, specs: List[SendSpec]) -> None:
        if not specs:
            return
        gso = self.profile.gso
        if gso.enabled:
            # Stock GSO cannot pace within a buffer, and quiche's send loop
            # flushes the whole wake-up's worth together: every buffer of the
            # batch carries the first packet's timestamp (the Figure 6
            # burstiness). The paced-GSO kernel patch restores per-buffer
            # scheduling plus in-kernel segment spacing.
            batch_txtime = specs[0].txtime_ns
            i = 0
            while i < len(specs):
                take = gso.segments_for(len(specs) - i)
                group = specs[i : i + take]
                if len(group) == 1:
                    if not gso.paced:
                        group[0].txtime_ns = batch_txtime
                    self.socket.sendmsg(group[0])
                else:
                    rate = None
                    if gso.paced:
                        rate = max(self.pacer.rate_bps // 8, 1)
                    self.socket.send_gso(
                        group,
                        txtime_ns=group[0].txtime_ns if gso.paced else batch_txtime,
                        pacing_rate_Bps=rate,
                        expected_send_ns=group[0].expected_send_ns,
                    )
                i += take
        elif len(specs) == 1:
            self.socket.sendmsg(specs[0])
        else:
            batch = self.profile.send_batch
            for i in range(0, len(specs), batch):
                self.socket.sendmmsg(specs[i : i + batch])

    def _send_app_paced(self, now: int, on_ack_wake: bool) -> None:
        """ngtcp2 / picoquic style: the application enforces timestamps."""
        profile = self.profile
        mtu = self.conn.config.mtu_payload
        threshold = profile.ack_send_threshold_packets * mtu
        if (
            on_ack_wake
            and threshold
            and isinstance(self.pacer, LeakyBucketPacer)
            and self.pacer.release_time(now, threshold) > now
            and self.conn.ack_mgr.received_count() > 0
        ):
            # picoquic loss-based quirk: not enough banked credit — wait for
            # the (coarse) send timer instead of dribbling packets per ACK.
            if self.conn.wants_to_send(now):
                self._pacer_deadline = self.pacer.release_time(now, threshold)
            return
        conn = self.conn
        pacer = self.pacer
        ecn = 2 if conn.config.ecn else 0
        sent = 0
        while sent < MAX_PACKETS_PER_WAKEUP and conn.wants_to_send(now):
            release = pacer.release_time(now, mtu)
            if release > now:
                self._pacer_deadline = release
                break
            built = conn.build_packet(now)
            if built is None:
                break
            if built.ack_eliciting:
                pacer.commit(now, built.size)
            conn.on_packet_sent(built, now)
            self.expected_send_log.append((built.pn, release))
            self.socket.sendmsg(
                SendSpec(built.packet, built.size, None, release, built.pn, ecn)
            )
            sent += 1


def make_pacer(profile: StackProfile, mtu: int) -> Pacer:
    """Build the pacer the profile's pacing mode needs."""
    if profile.pacing == "none":
        return NullPacer()
    if profile.pacing == "leaky_bucket":
        return LeakyBucketPacer(bucket_max_bytes=profile.bucket_packets * mtu)
    return IntervalPacer(burst_budget_bytes=profile.pacer_burst_bytes)
