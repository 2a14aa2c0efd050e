"""The QUIC connection: packetization, ACK processing, recovery, flow control.

The connection is deliberately *passive*: it never schedules its own events.
A stack driver (see :mod:`repro.stacks`) asks it to build packets, feeds it
received datagrams and fires its timers, passing explicit ``now`` timestamps.
This mirrors how quiche / ngtcp2 / picoquic are libraries driven by an
application event loop — which is precisely where their pacing behaviour
differs.

Handshake model: a compressed single-packet-number-space exchange (client
INITIAL padded to 1200 B, server crypto flight, client finish, server
HANDSHAKE_DONE). The paper's measurements span a long transfer, so handshake
details only need to be plausible, not cryptographic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.cc.base import CongestionController
from repro.cc.newreno import NewReno
from repro.errors import ProtocolError
from repro.quic.ack import AckManager
from repro.quic.flowcontrol import RecvLimit, SendLimit
from repro.quic.frames import (
    AckFrame,
    ConnectionCloseFrame,
    CryptoFrame,
    Frame,
    HandshakeDoneFrame,
    MaxDataFrame,
    MaxStreamDataFrame,
    PaddingFrame,
    PingFrame,
    StreamFrame,
)
from repro.quic.packet import (
    DEFAULT_MAX_UDP_PAYLOAD,
    PacketType,
    QuicPacket,
    packet_len,
    short_header_overhead,
)
from repro.quic.recovery import LossRecovery, SentPacket
from repro.quic.rtt import RttEstimator
from repro.quic.stream import DataSource, RecvStream, SendStream
from repro.units import mib, ms


@dataclass
class ConnectionConfig:
    mtu_payload: int = DEFAULT_MAX_UDP_PAYLOAD
    #: Receiver-side flow control (what we advertise).
    recv_conn_window: int = mib(15)
    recv_stream_window: int = mib(6)
    fc_autotune: bool = True
    #: Sender-side initial credit (peer transport parameters; the experiment
    #: wiring overwrites these with the peer's actual advertisements).
    peer_max_data: int = mib(15)
    peer_max_stream_data: int = mib(6)
    max_ack_delay_ns: int = ms(25)
    ack_threshold: int = 2
    #: Negotiate ECN: sent packets are marked ECT(0), received marks are
    #: echoed in ACK_ECN frames, and CE echoes trigger a congestion response.
    ecn: bool = False
    #: Synthetic handshake sizes.
    client_hello_bytes: int = 280
    server_crypto_bytes: int = 3200
    client_finish_bytes: int = 64
    initial_pad_to: int = 1200


class BuiltPacket:
    """A packet ready to send, plus what its sender must re-send if it is lost.

    Inside the simulator the packet object itself travels through the network
    (the ``Datagram`` payload is opaque) and is never serialized: ``size`` and
    ``ack_eliciting`` are the packet's own ``encoded_len`` and
    ``ack_eliciting``, which the connection tallied while assembling it.
    """

    __slots__ = ("packet", "pn", "size", "ack_eliciting", "retx")

    def __init__(self, packet: QuicPacket, retx: List[Tuple[Any, ...]]):
        self.packet = packet
        self.pn = packet.packet_number
        self.size = packet.encoded_len
        self.ack_eliciting = packet.ack_eliciting
        self.retx = retx


class Connection:
    """One endpoint of a QUIC connection."""

    def __init__(
        self,
        role: str,
        cc: Optional[CongestionController] = None,
        config: Optional[ConnectionConfig] = None,
    ):
        if role not in ("client", "server"):
            raise ProtocolError(f"role must be client or server, not {role!r}")
        self.role = role
        self.config = config or ConnectionConfig()
        #: Max datagram size and the frame budget of a full 1-RTT packet
        #: (cached off the hot path).
        self._mtu_payload = self.config.mtu_payload
        self._payload_budget = self._mtu_payload - short_header_overhead()
        self.cc = cc or NewReno(mtu=self._payload_budget)
        self.rtt = RttEstimator(max_ack_delay_ns=self.config.max_ack_delay_ns)
        self.recovery = LossRecovery(self.rtt)
        self.ack_mgr = AckManager(
            max_ack_delay_ns=self.config.max_ack_delay_ns,
            ack_eliciting_threshold=self.config.ack_threshold,
        )

        self.next_pn = 0
        self.established = False
        self.handshake_done_received = False
        self.closed = False

        # Crypto "stream" (single offset space).
        self._crypto_to_send: List[List[int]] = []  # [start, end) ranges
        self._crypto_offset = 0
        self._crypto_received = 0
        self._crypto_expected = (
            self.config.server_crypto_bytes
            if role == "client"
            else self.config.client_hello_bytes
        )
        self._initial_sent = False
        self._handshake_done_pending = False
        self._handshake_done_sent = False

        # Streams.
        self.send_streams: Dict[int, SendStream] = {}
        self.recv_streams: Dict[int, RecvStream] = {}
        self.conn_send_limit = SendLimit(self.config.peer_max_data)
        self.stream_send_limits: Dict[int, SendLimit] = {}
        self.conn_recv_limit = RecvLimit(
            self.config.recv_conn_window, autotune=self.config.fc_autotune
        )
        self.stream_recv_limits: Dict[int, RecvLimit] = {}
        #: Sum of every receive stream's highest received offset: what the
        #: peer has used of the connection-level limit.
        self._recv_offsets_total = 0

        self._control_frames: List[Frame] = []
        self.probe_packets_pending = 0
        self._stream_rr = 0  # round-robin scheduling pointer
        # ECN counters: received marks (receiver side) / highest CE count
        # echoed by the peer (sender side).
        self.ecn_received = [0, 0, 0]  # ECT(0), ECT(1), CE
        self._ce_echoed = 0
        self.ecn_ce_events = 0
        self._close_pending: Optional[ConnectionCloseFrame] = None
        self.close_sent = False

        # Statistics.
        self.packets_sent = 0
        self.packets_received = 0
        self.bytes_sent = 0
        self.stream_bytes_sent = 0
        self.stream_bytes_retx = 0
        self.acks_sent = 0
        self.spurious_loss_events = 0

    # ------------------------------------------------------------------ setup

    def open_send_stream(self, stream_id: int, source: DataSource) -> SendStream:
        """Every send stream has its flow-control limit from here on."""
        stream = SendStream(stream_id, source)
        self.send_streams[stream_id] = stream
        self._stream_send_limit(stream_id)
        return stream

    def _stream_send_limit(self, stream_id: int) -> SendLimit:
        """The stream's flow-control limit, created at the peer's initial value."""
        limit = self.stream_send_limits.get(stream_id)
        if limit is None:
            limit = self.stream_send_limits[stream_id] = SendLimit(
                self.config.peer_max_stream_data
            )
        return limit

    def start_handshake(self) -> None:
        """Client: queue the INITIAL crypto flight."""
        if self.role != "client":
            raise ProtocolError("only clients initiate the handshake")
        self._queue_crypto(self.config.client_hello_bytes)

    def _queue_crypto(self, nbytes: int) -> None:
        start = self._crypto_offset
        self._crypto_offset += nbytes
        self._crypto_to_send.append([start, start + nbytes])

    # ------------------------------------------------------------- timers

    def next_timeout(self, now: int) -> Optional[int]:
        """Earliest internal deadline (loss detection or delayed ACK)."""
        if self.closed or self.close_sent:
            # A closing endpoint transmits nothing (``wants_to_send`` is
            # False), so reporting a stale ACK/loss deadline would make the
            # driver spin re-arming an immediately-due timer until the run
            # drains. No deadline: the socket wake-up still handles arrivals.
            return None
        loss = self.recovery.next_timeout()
        ack = self.ack_mgr.ack_deadline()
        if ack is None:
            return loss
        if ack < now:
            ack = now
        if loss is None:
            return ack
        return loss if loss < ack else ack

    def on_timeout(self, now: int) -> None:
        """Fire loss-detection / ACK timers that are due."""
        loss_deadline = self.recovery.next_timeout()
        if loss_deadline is not None and now >= loss_deadline:
            lost, pto_fired = self.recovery.on_loss_timeout(now)
            if lost:
                self._handle_lost(lost, now)
            if pto_fired:
                self.probe_packets_pending = max(self.probe_packets_pending, 1)
                self._queue_probe_data()
        # Delayed-ACK deadlines don't need action here: once due,
        # ``wants_to_send`` goes true and the driver builds the ACK packet.

    def _queue_probe_data(self) -> None:
        """PTO probes SHOULD carry previously-sent data (RFC 9002 §6.2.4):
        requeue the oldest unacked packet's payload without declaring it
        lost, so the probe repairs a possible tail loss in one round trip."""
        sp = self.recovery.oldest_unacked()
        if sp is None:
            return
        for item in sp.retx or ():
            kind = item[0]
            if kind == "stream":
                _, sid, offset, length, fin = item
                stream = self.send_streams.get(sid)
                if stream is not None:
                    stream.on_loss(offset, length, fin)
            elif kind == "crypto":
                _, offset, length = item
                self._crypto_to_send.append([offset, offset + length])

    # ------------------------------------------------------------ receiving

    def on_datagram(self, packet: QuicPacket, now: int, ecn: int = 0) -> None:
        """Process one received UDP datagram (one QUIC packet).

        Inside the simulator packets travel as objects (datagram payloads are
        opaque), so the receive path takes the :class:`QuicPacket` itself and
        never decodes bytes. ``ecn`` is the IP ECN codepoint (0 Not-ECT,
        1 ECT(1), 2 ECT(0), 3 CE).
        """
        if ecn == 2:
            self.ecn_received[0] += 1
        elif ecn == 1:
            self.ecn_received[1] += 1
        elif ecn == 3:
            self.ecn_received[2] += 1
        self.packets_received += 1
        self.ack_mgr.record(packet.packet_number, packet.ack_eliciting, now)
        for frame in packet.frames:
            if isinstance(frame, StreamFrame):
                self._process_stream(frame, now)
            elif isinstance(frame, AckFrame):
                self._process_ack(frame, now)
            else:
                self._process_other_frame(frame, now)

    def _process_other_frame(self, frame: Frame, now: int) -> None:
        """Everything but the two frame types that make up a transfer."""
        if isinstance(frame, CryptoFrame):
            self._process_crypto(frame, now)
        elif isinstance(frame, MaxDataFrame):
            self.conn_send_limit.update_limit(frame.max_data)
        elif isinstance(frame, MaxStreamDataFrame):
            self._stream_send_limit(frame.stream_id).update_limit(frame.max_data)
        elif isinstance(frame, HandshakeDoneFrame):
            self.handshake_done_received = True
            self.established = True
        elif isinstance(frame, ConnectionCloseFrame):
            self.closed = True
        # PADDING / PING frames need no action.

    def _process_ack(self, ack: AckFrame, now: int) -> None:
        result = self.recovery.on_ack_frame(ack, now)
        if ack.ecn_counts is not None and ack.ecn_counts[2] > self._ce_echoed:
            self._ce_echoed = ack.ecn_counts[2]
            self.ecn_ce_events += 1
            sent_time = (
                result.newly_acked[-1].time_sent if result.newly_acked else now
            )
            self.cc.on_ecn_ce(now, sent_time)
        if result.spurious_pns:
            self.spurious_loss_events += 1
            self.cc.on_spurious_loss(
                result.spurious_pns, now, self.recovery.lost_packets_total
            )
        if result.newly_acked:
            streams = self.send_streams
            for sp in result.newly_acked:
                for item in sp.retx or ():
                    if item[0] == "stream":
                        stream = streams.get(item[1])
                        if stream is not None:
                            stream.on_ack(item[2], item[3], item[4])
            self.cc.on_packets_acked(
                result.newly_acked,
                now,
                self.rtt,
                self.recovery.bytes_in_flight,
                self.recovery.lost_packets_total,
            )
            if result.rate_sample is not None:
                self.cc.on_rate_sample(result.rate_sample, now)
        if result.lost:
            self._handle_lost(result.lost, now)
            if result.persistent_congestion:
                self.cc.on_persistent_congestion(now)

    def _handle_lost(self, lost: List[SentPacket], now: int) -> None:
        for sp in lost:
            for item in sp.retx or ():
                kind = item[0]
                if kind == "stream":
                    _, sid, offset, length, fin = item
                    stream = self.send_streams.get(sid)
                    if stream is not None:
                        stream.on_loss(offset, length, fin)
                elif kind == "crypto":
                    _, offset, length = item
                    self._crypto_to_send.append([offset, offset + length])
                elif kind == "max_data":
                    self._queue_max_data(now)
                elif kind == "max_stream_data":
                    self._queue_max_stream_data(item[1], now)
                elif kind == "handshake_done":
                    self._handshake_done_pending = True
        self.cc.on_packets_lost(
            lost, now, self.recovery.bytes_in_flight, self.recovery.lost_packets_total
        )

    def _process_crypto(self, frame: CryptoFrame, now: int) -> None:
        self._crypto_received = max(self._crypto_received, frame.offset + len(frame.data))
        if self.role == "server":
            if self._crypto_received >= self.config.client_hello_bytes and not self._initial_sent:
                self._initial_sent = True
                self._queue_crypto(self.config.server_crypto_bytes)
            finish_total = self.config.client_hello_bytes + self.config.client_finish_bytes
            if self._crypto_received >= finish_total and not self._handshake_done_sent:
                self.established = True
                self._handshake_done_pending = True
        else:
            if self._crypto_received >= self.config.server_crypto_bytes and not self.established:
                self.established = True
                self._queue_crypto(self.config.client_finish_bytes)

    def _process_stream(self, frame: StreamFrame, now: int) -> None:
        stream_id = frame.stream_id
        stream = self.recv_streams.get(stream_id)
        if stream is None:
            stream = RecvStream(stream_id)
            self.recv_streams[stream_id] = stream
            self.stream_recv_limits[stream_id] = RecvLimit(
                self.config.recv_stream_window, autotune=self.config.fc_autotune
            )
        offset = frame.offset
        length = frame.length
        # Flow control is done on the limits' fields here: the application
        # consumes what is delivered, and a limit asks for an update once less
        # than half its window is left. A violation goes through ``check``,
        # which raises.
        slimit = self.stream_recv_limits[stream_id]
        if offset + length > slimit.advertised:
            slimit.check(offset + length)
        conn_limit = self.conn_recv_limit
        prev_frontier = stream.delivered
        prev_highest = stream.highest_received
        if stream.on_frame(offset, length, frame.fin):
            self._recv_offsets_total += stream.highest_received - prev_highest
            if self._recv_offsets_total > conn_limit.advertised:
                conn_limit.check(self._recv_offsets_total)
        # The application consumes data immediately in our workloads.
        delivered = stream.delivered
        if delivered > slimit.consumed:
            slimit.consumed = delivered
        if slimit.advertised - slimit.consumed < slimit.window // 2:
            self._queue_max_stream_data(stream_id, now)
        if delivered > prev_frontier:
            conn_limit.consumed += delivered - prev_frontier
        if conn_limit.advertised - conn_limit.consumed < conn_limit.window // 2:
            self._queue_max_data(now)

    def _queue_max_data(self, now: int) -> None:
        limit = self.conn_recv_limit.next_limit(now, self.rtt.smoothed_rtt)
        self._control_frames = [
            f for f in self._control_frames if not isinstance(f, MaxDataFrame)
        ]
        self._control_frames.append(MaxDataFrame(limit))

    def _queue_max_stream_data(self, stream_id: int, now: int) -> None:
        slimit = self.stream_recv_limits.get(stream_id)
        if slimit is None:
            return
        limit = slimit.next_limit(now, self.rtt.smoothed_rtt)
        self._control_frames = [
            f
            for f in self._control_frames
            if not (isinstance(f, MaxStreamDataFrame) and f.stream_id == stream_id)
        ]
        self._control_frames.append(MaxStreamDataFrame(stream_id, limit))

    # ------------------------------------------------------------- sending

    def close(self, error_code: int = 0, reason: bytes = b"") -> None:
        """Initiate a graceful close: a CONNECTION_CLOSE goes out with the
        next packet, after which this endpoint stops transmitting."""
        if not self.close_sent and self._close_pending is None:
            self._close_pending = ConnectionCloseFrame(error_code, reason)

    def wants_to_send(self, now: int) -> bool:
        """Anything to transmit right now (ignoring pacing)? A pure query."""
        if self.closed:
            return False
        if self._close_pending is not None:
            return True
        if self.close_sent:
            return False
        if (
            self.probe_packets_pending
            or self._control_frames
            or self._crypto_to_send
            or self._handshake_done_pending
            or (self.ack_mgr.ack_pending and self.ack_mgr.should_ack_now(now))
        ):
            return True
        return self._has_sendable_stream_data()

    def _has_sendable_stream_data(self) -> bool:
        """The first stream with data (new, retransmission or a bare FIN) is
        not flow-control blocked and the window has room for a full packet."""
        for stream in self.send_streams.values():
            if not stream.has_retx:  # a retransmission needs no new credit
                new_bytes = stream.size - stream.next_offset
                if new_bytes <= 0 and stream.fin_sent:
                    continue  # nothing queued on this one
                conn_limit = self.conn_send_limit
                if conn_limit.limit <= conn_limit.used:
                    return False
                if new_bytes > 0:
                    slimit = self.stream_send_limits[stream.stream_id]
                    if slimit.limit <= slimit.used:
                        return False
            return self.cc.can_send(self.recovery.bytes_in_flight) >= self._mtu_payload
        return False

    def _app_limited(self) -> bool:
        """Nothing is queued on any stream, or flow control blocks the first
        stream with new data before any retransmission is due."""
        queued = False
        conn_limit = self.conn_send_limit
        for stream in self.send_streams.values():
            if stream.has_retx:
                return False
            if stream.next_offset < stream.size:
                if conn_limit.limit <= conn_limit.used:
                    return True
                slimit = self.stream_send_limits[stream.stream_id]
                if slimit.limit <= slimit.used:
                    return True
                queued = True
            elif not stream.fin_sent:
                queued = True
        return not queued

    def build_packet(self, now: int) -> Optional[BuiltPacket]:
        """Assemble the next packet, or None if nothing (or no window).

        The packet's size and ack-elicitation are tallied here, while the
        frames are chosen, and travel on the packet: ``budget`` is debited
        the encoded length of every frame, and every ack-eliciting frame
        leaves an entry in ``retx``.
        """
        if self.closed:
            return None
        if self._close_pending is not None:
            frame = self._close_pending
            self._close_pending = None
            self.close_sent = True
            packet = QuicPacket(PacketType.ONE_RTT, self.next_pn, [frame])
            self.next_pn += 1
            return BuiltPacket(packet, [])
        if self.close_sent:
            return None
        probe = self.probe_packets_pending > 0
        frames: List[Frame] = []
        retx: List[Tuple[Any, ...]] = []
        full_budget = budget = self._payload_budget

        ack_mgr = self.ack_mgr
        if ack_mgr.ack_pending and (
            ack_mgr.should_ack_now(now)
            or self._crypto_to_send
            or self._control_frames
            or probe
            or self._has_sendable_stream_data()
        ):
            ack = ack_mgr.build_ack(now)
            if ack is not None:
                if self.config.ecn and any(self.ecn_received):
                    ack = AckFrame(
                        ack.largest, ack.ack_delay_us, ack.ranges,
                        tuple(self.ecn_received),
                    )
                frames.append(ack)
                budget -= ack.encoded_len
                self.acks_sent += 1

        if self._handshake_done_pending and budget >= 1:
            frames.append(HandshakeDoneFrame())
            retx.append(("handshake_done",))
            self._handshake_done_pending = False
            self._handshake_done_sent = True
            budget -= 1

        while self._control_frames and budget >= 16:
            frame = self._control_frames.pop(0)
            frames.append(frame)
            budget -= frame.encoded_len
            if isinstance(frame, MaxDataFrame):
                retx.append(("max_data",))
            elif isinstance(frame, MaxStreamDataFrame):
                retx.append(("max_stream_data", frame.stream_id))
            elif frame.ack_eliciting:
                retx.append(("control",))

        packet_type = PacketType.ONE_RTT
        if self._crypto_to_send and budget > 32:
            if not self.established and self.role == "client" and self.next_pn == 0:
                packet_type = PacketType.INITIAL
            start, end = self._crypto_to_send[0]
            take = min(end - start, budget - 8)
            frame = CryptoFrame(start, bytes(take))
            frames.append(frame)
            budget -= frame.encoded_len
            if take == end - start:
                self._crypto_to_send.pop(0)
            else:
                self._crypto_to_send[0][0] = start + take
            retx.append(("crypto", start, take))

        # Stream data, limited by cwnd and flow control. Streams are served
        # round-robin (per packet) so concurrent transfers share the
        # connection fairly, like HTTP/3 stream multiplexing.
        streams = self.send_streams
        if (
            budget >= 24
            and streams
            and (probe or self.cc.can_send(self.recovery.bytes_in_flight) >= self._mtu_payload)
        ):
            if len(streams) == 1:
                # Single-transfer fast path: no rotation to compute, and the
                # round-robin cursor is irrelevant with one stream.
                (stream,) = streams.values()
                if stream.has_retx or stream.next_offset < stream.size or not stream.fin_sent:
                    budget = self._fill_stream_frames(stream, frames, retx, budget)
            else:
                order = list(streams.values())
                start = self._stream_rr % len(order)
                rotated = order[start:] + order[:start]
                filled_any = False
                for stream in rotated:
                    if budget < 24:
                        break
                    before = budget
                    budget = self._fill_stream_frames(stream, frames, retx, budget)
                    if budget < before and not filled_any:
                        filled_any = True
                        self._stream_rr = start + 1

        if not frames:
            if not probe:
                return None
            frames.append(PingFrame())
            retx.append(("ping",))
            budget -= 1

        if probe:
            self.probe_packets_pending -= 1

        payload_len = full_budget - budget
        if packet_type is PacketType.INITIAL:
            pad = self.config.initial_pad_to - payload_len
            if pad > 0:
                frames.append(PaddingFrame(pad))
                payload_len += pad

        packet = QuicPacket(
            packet_type,
            self.next_pn,
            frames,
            ack_eliciting=bool(retx),
            encoded_len=packet_len(packet_type, payload_len),
        )
        self.next_pn += 1
        return BuiltPacket(packet, retx)

    def _fill_stream_frames(
        self,
        stream: SendStream,
        frames: List[Frame],
        retx: List[Tuple[Any, ...]],
        budget: int,
    ) -> int:
        """Append STREAM frames for ``stream``; returns the remaining budget."""
        stream_id = stream.stream_id
        slimit = self.stream_send_limits[stream_id]
        conn_limit = self.conn_send_limit
        # A synthetic all-zero source is sent as byte counts (see StreamFrame).
        as_length = stream.source.fill == 0
        while budget >= 24 and (
            stream.has_retx or stream.next_offset < stream.size or not stream.fin_sent
        ):
            probe_len = budget - StreamFrame.header_overhead(
                stream_id, stream.next_offset or 1, budget
            )
            if probe_len <= 0:
                break
            if stream.has_retx:
                chunk = stream.next_chunk(probe_len)
            else:
                max_new = min(
                    probe_len,
                    conn_limit.limit - conn_limit.used,
                    slimit.limit - slimit.used,
                )
                if max_new > 0:
                    chunk = stream.next_chunk(max_new)
                elif stream.next_offset >= stream.size and not stream.fin_sent:
                    chunk = stream.next_chunk(0)
                else:
                    chunk = None
            if chunk is None:
                break
            offset, length, fin, is_retx = chunk
            frame = StreamFrame(
                stream_id, offset, length if as_length else stream.read(offset, length), fin
            )
            frames.append(frame)
            retx.append(("stream", stream_id, offset, length, fin))
            budget -= frame.encoded_len
            if is_retx:
                self.stream_bytes_retx += length
            else:
                advance = offset + length - slimit.used
                if advance > 0:
                    if (
                        advance > slimit.limit - slimit.used
                        or advance > conn_limit.limit - conn_limit.used
                    ):
                        slimit.consume(advance)  # over a limit: one of these raises
                        conn_limit.consume(advance)
                    else:
                        slimit.used += advance
                        conn_limit.used += advance
            self.stream_bytes_sent += length
        return budget

    def on_packet_sent(self, built: BuiltPacket, now: int) -> None:
        """Register a built packet as sent (driver calls this at write time)."""
        recovery = self.recovery
        size = built.size
        eliciting = built.ack_eliciting
        # The record outlives the wire packet (an ACK-only packet is never
        # acknowledged), so it keeps the numbers and not the frames, and not
        # even an ACK-only packet's empty retransmission list.
        sp = SentPacket(built.pn, now, size, eliciting, eliciting, built.retx or None)
        # App-limited marking (RFC 9002 §7.8): the window is underutilized
        # because the application has no data or flow control blocks it.
        # Controllers skip window growth for such packets, and BBR discounts
        # their rate samples.
        recovery.app_limited = (
            self._app_limited() and self.cc.can_send(recovery.bytes_in_flight + size) > 0
        )
        recovery.on_packet_sent(sp, now)
        self.cc.on_packet_sent(sp, recovery.bytes_in_flight, now)
        self.packets_sent += 1
        self.bytes_sent += size

    # ------------------------------------------------------------- queries

    def pacing_rate_bps(self) -> int:
        return self.cc.pacing_rate_bps(self.rtt)

    def transfer_complete(self, stream_id: int = 0) -> bool:
        stream = self.recv_streams.get(stream_id)
        return stream is not None and stream.complete
