"""A fixed piece of pure-Python work, timed next to every pass.

This host is a few cores of a shared machine, and what the neighbours do to
the core's speed moves a pass by up to a factor of two within seconds (same
CPU seconds as wall seconds: the process is not descheduled, the core is
slower). No run length the driver's budget allows averages that out, so every
timed pass is paired with this kernel, run immediately before it, and the
end-to-end times are reported in *reference seconds*: host seconds x
``NOMINAL_S`` / the kernel's time next to the pass. A change to the program
cannot move the kernel (it lives here and imports nothing of ``repro``), so a
ratio between two commits reads the same in reference seconds as in host
seconds; only the host's share of the variance goes away.

The kernel is shaped like the simulator's inner loop on purpose (a heap of
tuples, slotted objects, a dict keyed by sequence number, method calls), so
that the interpreter stresses the core the way a pass does.
"""

from __future__ import annotations

import heapq
import time

#: The kernel's time on this host in a quiet hour (it ranges from 0.07 s on an
#: undisturbed core to 0.3 s), so that reference seconds read like that hour's
#: host seconds. A constant of the benchmark, not a measurement: changing it
#: rescales every reported time.
NOMINAL_S = 0.095
ITERATIONS = 100_000
_WINDOW = 64


class _Packet:
    __slots__ = ("time", "seq", "size", "acked")

    def __init__(self, now: int, seq: int, size: int):
        self.time = now
        self.seq = seq
        self.size = size
        self.acked = False


class _Kernel:
    def __init__(self) -> None:
        self.heap: list = []
        self.in_flight: dict = {}
        self.acked_bytes = 0
        self.seq = 0

    def step(self, now: int) -> int:
        self.seq += 1
        packet = _Packet(now, self.seq, 1200 + (self.seq & 63))
        self.in_flight[self.seq] = packet
        heapq.heappush(self.heap, (now + (self.seq * 7919) % 1000, self.seq, packet))
        if len(self.heap) <= _WINDOW:
            return now
        due, seq, oldest = heapq.heappop(self.heap)
        oldest.acked = True
        self.acked_bytes += oldest.size
        del self.in_flight[seq]
        return max(now, due)


def run() -> float:
    """Seconds the kernel took just now."""
    start = time.perf_counter_ns()
    kernel = _Kernel()
    now = 0
    for _ in range(ITERATIONS):
        now = kernel.step(now) + 1
    if kernel.seq != ITERATIONS or len(kernel.in_flight) != _WINDOW:
        raise AssertionError("reference kernel lost packets")
    return (time.perf_counter_ns() - start) / 1e9
