"""Passive optical fiber tap and sniffer.

The paper captures packets *on the wire between server and bottleneck* with a
passive optical tap feeding a MoonGen sniffer (timestamp resolution < 2 ns),
so that measurement neither perturbs the connection nor is re-shaped by the
network emulation. In simulation the tap is a zero-delay pass-through feeding
a :class:`Sniffer`.

The sniffer stores captures **columnar**: six parallel ``array('q')`` columns
plus an interned flow table, appended in arrival order. A multi-MiB transfer
captures thousands of frames, and building a frozen dataclass per frame was a
measurable slice of the simulation hot loop; appending six machine integers
is far cheaper and keeps the capture cache-friendly for the metrics code,
which consumes the raw columns directly. The classic record view
(:attr:`Sniffer.records`, :meth:`Sniffer.from_host`) is materialized lazily
and cached, so existing consumers — including the result fingerprint — see
exactly the same :class:`CaptureRecord` objects as before.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Final, Iterable, List, Optional, Tuple

from repro.net.packet import Datagram, FlowTuple, PacketSink
from repro.sim.engine import Simulator

#: Column sentinel for "field was None" (packet_number, gso_id). Both fields
#: are non-negative whenever present, so -1 is unambiguous.
_NONE: Final[int] = -1


@dataclass(frozen=True)
class CaptureRecord:
    """One captured frame: everything the evaluation scripts need."""

    time_ns: int
    wire_size: int
    payload_size: int
    flow: Tuple[str, int, str, int]
    packet_number: Optional[int]
    dgram_id: int
    gso_id: Optional[int]

    @property
    def src(self) -> str:
        return self.flow[0]

    @property
    def dst(self) -> str:
        return self.flow[2]


class CaptureColumns:
    """Struct-of-arrays view over a capture: parallel columns, one row per
    frame, in arrival order.

    ``packet_number`` and ``gso_id`` use ``-1`` where the record-level API
    reports ``None``. ``flow_index`` indexes into :attr:`flows`.
    """

    __slots__ = (
        "time_ns", "wire_size", "payload_size",
        "packet_number", "dgram_id", "gso_id", "flow_index", "flows",
    )

    def __init__(self, flows: Optional[List[FlowTuple]] = None):
        self.time_ns: "array[int]" = array("q")
        self.wire_size: "array[int]" = array("q")
        self.payload_size: "array[int]" = array("q")
        self.packet_number: "array[int]" = array("q")
        self.dgram_id: "array[int]" = array("q")
        self.gso_id: "array[int]" = array("q")
        self.flow_index: "array[int]" = array("q")
        #: Interned flow tuples; ``flow_index`` rows point into this list.
        self.flows: List[FlowTuple] = flows if flows is not None else []

    def __len__(self) -> int:
        return len(self.time_ns)

    def select(self, indices: Iterable[int]) -> "CaptureColumns":
        """New columns holding only the given rows (shared flow table)."""
        out = CaptureColumns(flows=self.flows)
        for name in (
            "time_ns", "wire_size", "payload_size",
            "packet_number", "dgram_id", "gso_id", "flow_index",
        ):
            src = getattr(self, name)
            getattr(out, name).extend(src[i] for i in indices)
        return out

    def record(self, i: int) -> CaptureRecord:
        """Materialize row ``i`` as a :class:`CaptureRecord`."""
        pn = self.packet_number[i]
        gso = self.gso_id[i]
        return CaptureRecord(
            time_ns=self.time_ns[i],
            wire_size=self.wire_size[i],
            payload_size=self.payload_size[i],
            flow=self.flows[self.flow_index[i]],
            packet_number=None if pn == _NONE else pn,
            dgram_id=self.dgram_id[i],
            gso_id=None if gso == _NONE else gso,
        )


class _RecordsView(list):
    """The lazy ``Sniffer.records`` list.

    A real ``list`` subclass so every consumer (slicing, ``len``, iteration,
    identity as a Sequence) behaves exactly as before; the sniffer refreshes
    it in place when rows were appended since the last materialization.
    """


class Sniffer:
    """Accumulates captures, in arrival order, as columnar arrays."""

    def __init__(self, name: str = "sniffer"):
        self.name: str = name
        self.columns: CaptureColumns = CaptureColumns()
        self._flow_ids: Dict[FlowTuple, int] = {}
        self._records = _RecordsView()
        #: Per-source-address row indices, maintained at capture time so
        #: ``from_host`` never rescans the capture.
        self._host_rows: Dict[str, List[int]] = {}
        self._host_records: Dict[str, List[CaptureRecord]] = {}

    def capture(self, time_ns: int, dgram: Datagram) -> None:
        cols = self.columns
        flow = dgram.flow
        idx = self._flow_ids.get(flow)
        if idx is None:
            idx = len(cols.flows)
            self._flow_ids[flow] = idx
            cols.flows.append(flow)
            rows = self._host_rows.setdefault(flow[0], [])
        else:
            rows = self._host_rows[flow[0]]
        rows.append(len(cols.time_ns))
        cols.time_ns.append(time_ns)
        cols.wire_size.append(dgram.wire_size)
        cols.payload_size.append(dgram.payload_size)
        pn = dgram.packet_number
        cols.packet_number.append(_NONE if pn is None else pn)
        cols.dgram_id.append(dgram.dgram_id)
        gso = dgram.gso_id
        cols.gso_id.append(_NONE if gso is None else gso)
        cols.flow_index.append(idx)

    @property
    def records(self) -> List[CaptureRecord]:
        """All captures as :class:`CaptureRecord` objects (lazy, cached)."""
        view = self._records
        n = len(self.columns)
        if len(view) != n:
            record = self.columns.record
            view.extend(record(i) for i in range(len(view), n))
        return view

    def from_host(self, addr: str) -> List[CaptureRecord]:
        """Records whose source address is ``addr`` (e.g. the server)."""
        rows = self._host_rows.get(addr)
        if rows is None:
            return []
        cached = self._host_records.get(addr)
        if cached is not None and len(cached) == len(rows):
            return cached
        record = self.columns.record
        out = [record(i) for i in rows]
        self._host_records[addr] = out
        return out

    def columns_from_host(self, addr: str) -> CaptureColumns:
        """Columnar view of the frames sourced by ``addr``."""
        rows = self._host_rows.get(addr)
        if rows is None:
            return CaptureColumns(flows=self.columns.flows)
        return self.columns.select(rows)

    def host_rows(self, addr: str) -> List[int]:
        """Capture row indices for frames sourced by ``addr``."""
        return list(self._host_rows.get(addr, ()))

    def __len__(self) -> int:
        return len(self.columns)


class FiberTap:
    """Zero-delay pass-through that mirrors every frame to a sniffer."""

    def __init__(self, sim: Simulator, sniffer: Sniffer, sink: Optional[PacketSink] = None):
        self.sim: Simulator = sim
        self.sniffer: Sniffer = sniffer
        self.sink: Optional[PacketSink] = sink

    def receive(self, dgram: Datagram) -> None:
        self.sniffer.capture(self.sim.now, dgram)
        if self.sink is not None:
            self.sink.receive(dgram)
