"""The download client.

One client implementation serves every experiment: it performs the handshake,
sends the HTTP request on stream 0, then acknowledges the server's response
until the transfer completes. Pacing is irrelevant in this direction (mostly
ACKs), matching the paper's setup where only the server's behaviour is
measured.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.kernel.socket import SendSpec, UdpSocket
from repro.quic import h3
from repro.quic.connection import Connection
from repro.quic.stream import DataSource
from repro.sim.clock import TimerModel, HIGHRES_TIMER
from repro.sim.engine import Simulator
from repro.sim.process import SimProcess


class ClientDriver(SimProcess):
    def __init__(
        self,
        sim: Simulator,
        conn: Connection,
        socket: UdpSocket,
        timer_model: TimerModel = HIGHRES_TIMER,
        rng: Optional[random.Random] = None,
        request_count: int = 1,
    ):
        super().__init__(sim, "client", timer_model, rng)
        self.conn = conn
        self.socket = socket
        socket.on_readable = self.wake_now
        #: Parallel GET requests; stream IDs 0, 4, 8, ... (client bidi).
        self.request_count = request_count
        self.request_stream_ids = [4 * i for i in range(request_count)]
        self.request_sent = False
        self.request_sent_at: Optional[int] = None
        self.first_response_at: Optional[int] = None
        self.completed_at: Optional[int] = None
        #: Per-stream completion times (multi-object page loads).
        self.object_completed_at: dict[int, int] = {}

    def start(self) -> None:
        self.conn.start_handshake()
        self.wake_now()

    def on_wakeup(self) -> None:
        now = self.sim.now
        conn = self.conn
        socket = self.socket
        received = False
        if socket.rx:
            received = True
            for dgram in socket.recv_all():
                conn.on_datagram(dgram.payload, now, dgram.ecn)
        conn.on_timeout(now)
        if not self.request_sent:
            self._maybe_send_request(now)
        # Response progress only changes when datagrams arrived; timer-only
        # wake-ups (the majority) skip the stream scan.
        if received and self.completed_at is None:
            self._track_response(now)
        self._send_pending(now)
        deadline = conn.next_timeout(now)
        if deadline is not None:
            self.arm_timer(deadline if deadline > now else now)

    def _maybe_send_request(self, now: int) -> None:
        if self.request_sent or not self.conn.established:
            return
        for sid in self.request_stream_ids:
            request = h3.encode_request(f"/file{sid}")
            self.conn.open_send_stream(sid, DataSource(len(request)))
        self.request_sent = True
        self.request_sent_at = now

    def _track_response(self, now: int) -> None:
        done = 0
        for sid in self.request_stream_ids:
            stream = self.conn.recv_streams.get(sid)
            if stream is None:
                continue
            if self.first_response_at is None and stream.bytes_received_total > 0:
                self.first_response_at = now
            if stream.complete:
                self.object_completed_at.setdefault(sid, now)
                done += 1
        if self.completed_at is None and done == self.request_count:
            self.completed_at = now
            # Graceful shutdown: tell the server to stop (its tail might
            # otherwise keep probing until its own timers give up).
            self.conn.close(0, b"download complete")

    def _send_pending(self, now: int) -> None:
        conn = self.conn
        sent = 0
        while sent < 64 and conn.wants_to_send(now):
            built = conn.build_packet(now)
            if built is None:
                break
            conn.on_packet_sent(built, now)
            self.socket.sendmsg(SendSpec(built.packet, built.size, packet_number=built.pn))
            sent += 1

    @property
    def done(self) -> bool:
        return self.completed_at is not None
