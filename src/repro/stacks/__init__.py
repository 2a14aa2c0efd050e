"""Per-library stack personalities.

Each profile assembles the same QUIC transport with the pacing enforcement,
event-loop timing, batching and congestion-control quirks of one of the
paper's stacks (quiche, picoquic, ngtcp2) or the TCP/TLS comparator.
"""

from repro.stacks.base import StackProfile, ServerDriver, PACING_MODES
from repro.stacks.client import ClientDriver
from repro.stacks.profiles import STACK_NAMES, profile_for

__all__ = [
    "StackProfile",
    "ServerDriver",
    "ClientDriver",
    "PACING_MODES",
    "profile_for",
    "STACK_NAMES",
]
