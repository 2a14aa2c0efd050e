"""qlog-style event tracing for connections — pay only for what you use.

A lightweight observability layer inspired by the qlog format (draft-ietf-
quic-qlog): the paper's artifact repository ships detailed per-connection
logs, and a reproduction should offer the same introspection. Events carry a
time, a category:event name, and a data dict; traces serialize to
JSON-seq-like dictionaries compatible with simple qlog tooling.

Observability must never tax runs that do not want it, so the layer is lazy
at three levels:

* :data:`NULL_TRACE` is a module-level no-op sink — its ``log()`` does
  nothing and allocates nothing, so code can log unconditionally against it;
* every trace carries a set of *enabled categories* (the part of the event
  name before the colon); ``attach_qlog`` wraps only the connection hooks
  whose category is enabled, so disabled categories cost zero — not even a
  wrapper call;
* per-packet frame names are formatted lazily: the ``transport:packet_sent``
  event defers ``frames=[...]`` until the event is first read, so traces that
  are recorded but never serialized skip the formatting entirely.

Usage::

    trace = QlogTrace("server")
    conn = Connection("server", ...)
    attach_qlog(conn, trace)
    ...
    trace.to_dict()  # or trace.save(path)
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, FrozenSet, List, Optional

QLOG_VERSION = "0.4"

#: Every category ``attach_qlog`` knows how to instrument.
ALL_CATEGORIES = frozenset({"transport", "recovery"})


@dataclass
class QlogEvent:
    time_ns: int
    name: str
    data: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {"time": self.time_ns / 1e6, "name": self.name, "data": self.data}


class _LazyEvent(QlogEvent):
    """An event whose data dict is built on first access.

    Hot-path emitters hand over a zero-argument thunk instead of a dict;
    nothing is formatted until somebody actually reads ``.data`` (equality,
    ``to_dict``, serialization). Events that are recorded but never inspected
    never pay the formatting cost.
    """

    def __init__(self, time_ns: int, name: str, build: Callable[[], Dict[str, Any]]):
        self.time_ns = time_ns
        self.name = name
        self._build: Optional[Callable[[], Dict[str, Any]]] = build

    @property
    def data(self) -> Dict[str, Any]:  # type: ignore[override]
        build = self._build
        if build is not None:
            self.__dict__["data"] = built = build()
            self._build = None
            return built
        return self.__dict__["data"]


class QlogTrace:
    """Accumulates events for one connection endpoint.

    :param categories: event categories to record (``"transport"``,
        ``"recovery"``); ``None`` enables everything. ``attach_qlog`` skips
        instrumenting hooks for categories the trace does not record.
    """

    def __init__(
        self,
        title: str,
        vantage_point: str = "server",
        categories: Optional[FrozenSet[str] | set[str]] = None,
    ):
        self.title = title
        self.vantage_point = vantage_point
        self.categories: FrozenSet[str] = (
            ALL_CATEGORIES if categories is None else frozenset(categories)
        )
        self.events: List[QlogEvent] = []

    def enabled(self, category: str) -> bool:
        return category in self.categories

    def log(self, time_ns: int, name: str, **data: Any) -> None:
        self.events.append(QlogEvent(time_ns, name, data))

    def log_lazy(self, time_ns: int, name: str, build: Callable[[], Dict[str, Any]]) -> None:
        """Record an event whose data dict is produced on first access."""
        self.events.append(_LazyEvent(time_ns, name, build))

    def of_type(self, name: str) -> List[QlogEvent]:
        return [e for e in self.events if e.name == name]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "qlog_version": QLOG_VERSION,
            "title": self.title,
            "trace": {
                "vantage_point": {"type": self.vantage_point},
                "events": [e.to_dict() for e in self.events],
            },
        }

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=1))
        return path

    def __len__(self) -> int:
        return len(self.events)


class NullTrace(QlogTrace):
    """A trace that records nothing, at constant (near-zero) cost.

    ``attach_qlog`` treats it as "all categories disabled" and leaves the
    connection completely unwrapped; direct ``log()`` calls are no-ops that
    allocate nothing.
    """

    def __init__(self) -> None:
        super().__init__("null", categories=frozenset())

    def enabled(self, category: str) -> bool:
        return False

    def log(self, time_ns: int, name: str, **data: Any) -> None:
        pass

    def log_lazy(self, time_ns: int, name: str, build: Callable[[], Dict[str, Any]]) -> None:
        pass


#: Shared no-op sink: log against this when no trace was configured.
NULL_TRACE = NullTrace()


def attach_qlog(conn, trace: QlogTrace) -> None:
    """Instrument a Connection with qlog events by wrapping its hooks.

    Only hooks whose category the trace enables are wrapped; a trace with no
    enabled categories (:data:`NULL_TRACE`) leaves the connection untouched
    apart from the ``conn.qlog`` attribute.

    Events emitted:

    * ``transport:packet_sent`` — pn, size, ack-eliciting, frame types;
    * ``transport:packet_received`` — pn, size;
    * ``recovery:metrics_updated`` — cwnd, bytes_in_flight, srtt (on ACK);
    * ``recovery:packet_lost`` — pn per lost packet;
    * ``recovery:spurious_loss`` — pns of late-acked packets;
    * ``recovery:congestion_event`` — new cwnd after a reduction.
    """
    if trace.enabled("transport"):
        orig_on_packet_sent = conn.on_packet_sent

        def on_packet_sent(built, now):
            orig_on_packet_sent(built, now)
            packet = built.packet
            size = built.size
            eliciting = built.ack_eliciting

            def build() -> Dict[str, Any]:
                return {
                    "packet_number": packet.packet_number,
                    "size": size,
                    "ack_eliciting": eliciting,
                    "frames": [type(f).__name__ for f in packet.frames],
                }

            trace.log_lazy(now, "transport:packet_sent", build)

        orig_on_datagram = conn.on_datagram

        def on_datagram(packet, now, ecn=0):
            orig_on_datagram(packet, now, ecn=ecn)
            trace.log(now, "transport:packet_received", size=packet.encoded_len, ecn=ecn)

        conn.on_packet_sent = on_packet_sent
        conn.on_datagram = on_datagram

    if trace.enabled("recovery"):
        orig_process_ack = conn._process_ack
        orig_handle_lost = conn._handle_lost

        def process_ack(ack, now):
            events_before = conn.cc.congestion_events
            spurious_before = conn.spurious_loss_events
            orig_process_ack(ack, now)
            trace.log(
                now,
                "recovery:metrics_updated",
                cwnd=conn.cc.cwnd,
                bytes_in_flight=conn.recovery.bytes_in_flight,
                smoothed_rtt_ms=conn.rtt.smoothed_rtt / 1e6,
                pacing_rate_bps=conn.pacing_rate_bps(),
            )
            if conn.cc.congestion_events > events_before:
                trace.log(now, "recovery:congestion_event", cwnd=conn.cc.cwnd)
            if conn.spurious_loss_events > spurious_before:
                trace.log(now, "recovery:spurious_loss", count=conn.spurious_loss_events)

        def handle_lost(lost, now):
            for sp in lost:
                trace.log(now, "recovery:packet_lost", packet_number=sp.pn, size=sp.size)
            orig_handle_lost(lost, now)

        conn._process_ack = process_ack
        conn._handle_lost = handle_lost

    conn.qlog = trace
