"""The sender's work per ACK does not grow with the window.

A call count (``tests/integration/test_call_budget.py``) cannot see a loop
inside one function, and the per-ACK cost that scaled with the window was
exactly that: one comprehension over every segment in flight. So this counts
executed bytecodes (``sys.settrace`` with ``f_trace_opcodes``) inside
``tcp/sender.py`` while a loss-free sender with a fixed window takes ACKs, at
40 and at 400 segments in flight.
"""

import sys

from repro.kernel.socket import UdpSocket
from repro.net.packet import Datagram
from repro.sim.engine import Simulator
from repro.tcp import sender as sender_module
from repro.tcp.segment import TCP_MSS, TcpSegment
from repro.tcp.sender import TcpSender

ACKS = 50


class FixedWindow:
    """Just enough congestion controller to hold the window still."""

    def __init__(self, segments: int):
        self.cwnd = segments * TCP_MSS
        self.min_cwnd = 2 * TCP_MSS

    def can_send(self, bytes_in_flight: int) -> int:
        return max(0, self.cwnd - bytes_in_flight)

    def on_packet_sent(self, sp, bytes_in_flight, now) -> None:
        pass

    def on_packets_acked(self, acked, now, rtt, bytes_in_flight, lost_total=0) -> None:
        pass


def opcodes_per_ack(window_segments: int) -> float:
    sim = Simulator()
    sock = UdpSocket(sim, "server", 2)  # no egress: segments go nowhere
    sock.connect("client", 1)
    sender = TcpSender(
        sim, sock, (window_segments + 2 * ACKS + 10) * TCP_MSS, cc=FixedWindow(window_segments)
    )
    sender.start()
    while sender.snd_nxt < window_segments * TCP_MSS:
        sender._send_window()  # a pass stops at the burst limit
    assert sender._pipe() == window_segments * TCP_MSS

    opcodes = 0

    def local_trace(frame, event, arg):
        nonlocal opcodes
        if event == "opcode":
            opcodes += 1
        return local_trace

    def global_trace(frame, event, arg):
        if frame.f_code.co_filename != sender_module.__file__:
            return None
        frame.f_trace_opcodes = True
        return local_trace

    previous = sys.gettrace()
    sys.settrace(global_trace)
    try:
        for i in range(1, ACKS + 1):  # one delayed ACK per two segments
            ack = TcpSegment(0, 0, ack_no=2 * i * TCP_MSS)
            sock.deliver(Datagram(flow=("client", 1, "server", 2), payload_size=53, payload=ack))
    finally:
        sys.settrace(previous)
    assert sender.snd_una == 2 * ACKS * TCP_MSS
    assert sender._pipe() == window_segments * TCP_MSS  # each ACK released two segments
    assert opcodes > 0
    return opcodes / ACKS


def test_bytecodes_per_ack_do_not_grow_with_the_window():
    small, large = opcodes_per_ack(40), opcodes_per_ack(400)
    assert large <= 1.2 * small, (small, large)
