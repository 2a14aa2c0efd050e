"""Linux kernel model: UDP sockets with SO_TXTIME and GSO, syscall costs, and
queueing disciplines (pfifo_fast, FQ, ETF, netem)."""

from repro.kernel.syscall import SyscallModel
from repro.kernel.socket import UdpSocket
from repro.kernel.gso import GsoSegmenter

__all__ = ["SyscallModel", "UdpSocket", "GsoSegmenter"]
