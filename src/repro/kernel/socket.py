"""UDP socket model: sendmsg / sendmmsg / GSO sends, SO_TXTIME, receive buffer.

The socket charges syscall costs on the calling thread's timeline: datagrams
written in one burst reach the qdisc staggered by their kernel processing
cost, and the application's next wake-up implicitly happens after the burst
is written (the stack drivers account for this via ``cpu_free_at``).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, List, Optional, Sequence

from repro.errors import ConfigError
from repro.kernel.gso import GsoBuffer
from repro.kernel.syscall import SyscallModel, DEFAULT_SYSCALLS
from repro.net.demux import DrainSink
from repro.net.packet import Datagram, FlowTuple, PacketSink
from repro.sim.engine import Simulator
from repro.units import mib

_gso_ids = itertools.count(1)


def reset_gso_ids() -> None:
    """Restart the GSO buffer id sequence.

    Same rationale as :func:`repro.net.packet.reset_dgram_ids`: ``gso_id``
    lands in capture records (and so in ``fingerprint()``), so a process-wide
    counter would make a GSO run's results depend on how many GSO buffers
    earlier experiments in the same interpreter sent. Each experiment resets
    the sequence at construction.
    """
    global _gso_ids
    _gso_ids = itertools.count(1)


class SendSpec:
    """One datagram the application wants to write."""

    __slots__ = (
        "payload", "payload_size", "txtime_ns", "expected_send_ns",
        "packet_number", "ecn",
    )

    def __init__(
        self,
        payload: Any,
        payload_size: int,
        txtime_ns: Optional[int] = None,
        expected_send_ns: Optional[int] = None,
        packet_number: Optional[int] = None,
        ecn: int = 0,
    ):
        self.payload = payload
        self.payload_size = payload_size
        self.txtime_ns = txtime_ns
        self.expected_send_ns = expected_send_ns
        self.packet_number = packet_number
        self.ecn = ecn


class UdpSocket:
    """A connected UDP socket with a kernel cost model.

    :param egress: first hop of the send path (qdisc, segmenter, or NIC);
        without one, sends are drained.
    :param so_txtime: whether SCM_TXTIME timestamps are attached to sends
        (without it, per-packet timestamps are silently ignored, like a real
        socket without ``setsockopt(SO_TXTIME)``).
    :param rcvbuf_bytes: receive buffer; the paper raises it to 50 MiB on the
        client to avoid receiver-side drops.
    """

    def __init__(
        self,
        sim: Simulator,
        local_addr: str,
        local_port: int,
        egress: Optional[PacketSink] = None,
        syscalls: SyscallModel = DEFAULT_SYSCALLS,
        so_txtime: bool = False,
        rcvbuf_bytes: int = mib(50),
    ):
        self.sim = sim
        self.local_addr = local_addr
        self.local_port = local_port
        self.egress = egress if egress is not None else DrainSink()
        self.syscalls = syscalls
        self.so_txtime = so_txtime
        self.rcvbuf_bytes = rcvbuf_bytes

        self.remote_addr: Optional[str] = None
        self.remote_port: Optional[int] = None
        self._flow: Optional[FlowTuple] = None

        self._cpu_free_at = 0
        #: The receive queue: test it for truth (readable?), drain it with
        #: :meth:`recv_all` — which swaps in a fresh deque, so do not keep it.
        self.rx: deque[Datagram] = deque()
        self._rx_bytes = 0
        self.rx_dropped = 0
        self.on_readable: Optional[Callable[[], None]] = None

        self.datagrams_sent = 0
        self.bytes_sent = 0
        self.gso_sends = 0

    # -- setup ------------------------------------------------------------

    def connect(self, remote_addr: str, remote_port: int) -> None:
        self.remote_addr = remote_addr
        self.remote_port = remote_port
        self._flow = (self.local_addr, self.local_port, remote_addr, remote_port)

    @property
    def flow(self) -> FlowTuple:
        if self._flow is None:
            raise ConfigError("socket not connected")
        return self._flow

    # -- send path ---------------------------------------------------------
    #
    # Each send call, in one frame: advance the thread's CPU timeline by the
    # syscall's cost, build the datagram(s) in send order (``dgram_id`` and
    # ``gso_id`` are drawn here), schedule the egress's ``receive`` at the
    # instant the kernel work completes.

    @property
    def cpu_free_at(self) -> int:
        """When the sending thread finishes its queued kernel work."""
        return max(self._cpu_free_at, self.sim.now)

    def sendmsg(self, spec: SendSpec) -> int:
        """Write one datagram; returns when the syscall completes."""
        flow = self._flow or self.flow  # the property raises if not connected
        size = spec.payload_size
        sim = self.sim
        now = sim.now
        syscalls = self.syscalls
        free = self._cpu_free_at
        # SyscallModel.sendmsg_cost(size), inline like sendmmsg's per-datagram cost.
        done = self._cpu_free_at = (
            (now if now > free else free)
            + syscalls.syscall_ns + syscalls.per_datagram_ns + round(syscalls.per_byte_ns * size)
        )
        dgram = Datagram(
            flow, size, spec.payload, spec.txtime_ns if self.so_txtime else None,
            spec.expected_send_ns, None, spec.packet_number, spec.ecn, now,
        )
        self.datagrams_sent += 1
        self.bytes_sent += size
        sim.schedule_at(done, self.egress.receive, dgram)
        return done

    def sendmmsg(self, specs: Sequence[SendSpec]) -> int:
        """Write a batch in one syscall; datagrams reach the qdisc staggered
        by their per-datagram kernel cost."""
        sim = self.sim
        now = sim.now
        if not specs:
            return now
        flow = self._flow or self.flow  # the property raises if not connected
        syscalls = self.syscalls
        so_txtime = self.so_txtime
        egress = self.egress.receive
        free = self._cpu_free_at
        t = (now if now > free else free) + syscalls.syscall_ns
        for spec in specs:
            size = spec.payload_size
            t += syscalls.per_datagram_ns + round(syscalls.per_byte_ns * size)
            dgram = Datagram(
                flow, size, spec.payload, spec.txtime_ns if so_txtime else None,
                spec.expected_send_ns, None, spec.packet_number, spec.ecn, now,
            )
            self.datagrams_sent += 1
            self.bytes_sent += size
            sim.schedule_at(t, egress, dgram)
        self._cpu_free_at = t
        return t

    def send_gso(
        self,
        specs: Sequence[SendSpec],
        txtime_ns: Optional[int] = None,
        pacing_rate_Bps: Optional[int] = None,
        expected_send_ns: Optional[int] = None,
    ) -> int:
        """Write all ``specs`` as one GSO buffer in one syscall.

        The buffer traverses the qdisc as a single unit (one txtime for the
        whole buffer). ``pacing_rate_Bps`` engages the paced-GSO kernel patch.
        """
        sim = self.sim
        now = sim.now
        if not specs:
            return now
        flow = self._flow or self.flow  # the property raises if not connected
        gso_id = next(_gso_ids)
        segments: List[Datagram] = []
        total = 0
        for spec in specs:
            # Segments inherit scheduling from the buffer: no txtime of their own.
            segments.append(Datagram(
                flow, spec.payload_size, spec.payload, None,
                spec.expected_send_ns, gso_id, spec.packet_number, spec.ecn, now,
            ))
            total += spec.payload_size
        free = self._cpu_free_at
        done = self._cpu_free_at = (now if now > free else free) + self.syscalls.gso_cost(total)
        buffer = GsoBuffer(segments=segments, pacing_rate_Bps=pacing_rate_Bps)
        super_dgram = Datagram(
            flow, total, buffer, txtime_ns if self.so_txtime else None,
            expected_send_ns, gso_id, None, 0, now,
        )
        self.datagrams_sent += len(specs)
        self.bytes_sent += total
        self.gso_sends += 1
        sim.schedule_at(done, self.egress.receive, super_dgram)
        return done

    # -- receive path --------------------------------------------------------

    def deliver(self, dgram: Datagram) -> None:
        """Called by the network when a datagram arrives for this socket."""
        if self._rx_bytes + dgram.payload_size > self.rcvbuf_bytes:
            self.rx_dropped += 1
            return
        self.rx.append(dgram)
        self._rx_bytes += dgram.payload_size
        if self.on_readable is not None:
            self.on_readable()

    # The network side addresses the socket as a PacketSink.
    receive = deliver

    def recv_all(self) -> "deque[Datagram]":
        """Drain the receive buffer (recvmmsg in a loop).

        Hands back the queue itself and starts a fresh one, so draining is
        O(1) instead of copying every pending datagram.
        """
        out = self.rx
        self.rx = deque()
        self._rx_bytes = 0
        return out

    @property
    def rx_pending(self) -> int:
        return len(self.rx)
