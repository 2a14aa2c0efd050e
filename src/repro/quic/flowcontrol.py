"""Connection- and stream-level flow control (RFC 9000 §4).

Two halves:

* :class:`SendLimit` — the sender's view of a peer-imposed limit (advanced by
  MAX_DATA / MAX_STREAM_DATA frames);
* :class:`RecvLimit` — the receiver's advertised window and the next limit to
  advertise. The connection advances ``consumed`` and asks for an update at
  half-window consumption, like most stacks
  (``Connection._process_stream``).

The ngtcp2 profile disables window growth beyond its fixed default, which is
what caps its baseline goodput in the paper (Table 1); see
``repro.stacks.ngtcp2``.
"""

from __future__ import annotations

from repro.errors import FlowControlError


class SendLimit:
    """Sender-side credit against a peer limit."""

    def __init__(self, initial_limit: int):
        self.limit = initial_limit
        self.used = 0

    def consume(self, nbytes: int) -> None:
        credit = self.limit - self.used
        if nbytes > credit:
            raise FlowControlError(
                f"attempt to consume {nbytes}B with only {max(credit, 0)}B of credit"
            )
        self.used += nbytes

    def update_limit(self, new_limit: int) -> bool:
        """Apply a MAX_* frame; returns True if the limit advanced."""
        if new_limit > self.limit:
            self.limit = new_limit
            return True
        return False


class RecvLimit:
    """Receiver-side advertised window.

    :param window: bytes of credit kept open ahead of the consumed offset.
    :param autotune: if True, the window doubles whenever updates are being
        consumed faster than once per RTT (as quiche/picoquic do); if False
        the window is fixed (ngtcp2's example server).
    """

    def __init__(self, window: int, autotune: bool = False, max_window: int = 1 << 30):
        self.window = window
        self.autotune = autotune
        self.max_window = max_window
        self.advertised = window
        self.consumed = 0  # highest contiguous offset delivered to the app
        self._last_update_ns: int | None = None

    def check(self, end_offset: int) -> None:
        """Raise if the peer wrote past our advertised limit."""
        if end_offset > self.advertised:
            raise FlowControlError(
                f"peer wrote to offset {end_offset} beyond advertised {self.advertised}"
            )

    def next_limit(self, now_ns: int, rtt_ns: int) -> int:
        """Produce the new limit for a MAX_DATA/MAX_STREAM_DATA frame."""
        if (
            self.autotune
            and self._last_update_ns is not None
            and rtt_ns > 0
            and now_ns - self._last_update_ns < 2 * rtt_ns
        ):
            self.window = min(self.window * 2, self.max_window)
        self._last_update_ns = now_ns
        self.advertised = self.consumed + self.window
        return self.advertised
