"""Passive optical fiber tap and sniffer.

The paper captures packets *on the wire between server and bottleneck* with a
passive optical tap feeding a MoonGen sniffer (timestamp resolution < 2 ns),
so that measurement neither perturbs the connection nor is re-shaped by the
network emulation. In simulation the tap is a zero-delay pass-through feeding
a :class:`Sniffer`.

The capture is **columnar** end to end: :class:`CaptureColumns` holds seven
parallel ``array('q')`` columns plus an interned flow table, appended in
arrival order, and that object is what a result carries, what validation,
fingerprint and metrics read, and what crosses a pickle boundary. A
:class:`CaptureRecord` is one row of it, built on demand when a caller
indexes or iterates the columns.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Final, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.net.packet import Datagram, FlowTuple, PacketSink
from repro.sim.engine import Simulator

#: Column sentinel for "field was None" (packet_number, gso_id). Both fields
#: are non-negative whenever present, so -1 is unambiguous.
_NONE: Final[int] = -1

#: The integer columns other than ``flow_index``, which is relative to a
#: flow table and so never copied between captures as-is.
_VALUE_COLUMNS: Final = (
    "time_ns", "wire_size", "payload_size", "packet_number", "dgram_id", "gso_id",
)


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


class CaptureColumns:
    """A capture: parallel columns, one row per frame, in arrival order.

    ``packet_number`` and ``gso_id`` hold ``-1`` where a :class:`CaptureRecord`
    reports ``None``; ``flow_index`` indexes into :attr:`flows`. Consumers on
    a per-packet path read the columns; the object is also a read-only
    sequence of its rows (``len``, iteration, ``cols[i]``, ``cols[a:b]``,
    ``==``), each row built as a :class:`CaptureRecord` when asked for.
    """

    __slots__ = (*_VALUE_COLUMNS, "flow_index", "flows")

    def __init__(self) -> None:
        self.time_ns: "array[int]" = array("q")
        self.wire_size: "array[int]" = array("q")
        self.payload_size: "array[int]" = array("q")
        self.packet_number: "array[int]" = array("q")
        self.dgram_id: "array[int]" = array("q")
        self.gso_id: "array[int]" = array("q")
        self.flow_index: "array[int]" = array("q")
        #: Interned flow tuples; ``flow_index`` rows point into this list.
        self.flows: List[FlowTuple] = []

    @classmethod
    def from_records(cls, records: Iterable[CaptureRecord]) -> "CaptureColumns":
        """The columns whose rows are ``records`` (tests, the CSV loader)."""
        out = cls()
        flow_ids: Dict[FlowTuple, int] = {}
        for r in records:
            out.time_ns.append(r.time_ns)
            out.wire_size.append(r.wire_size)
            out.payload_size.append(r.payload_size)
            out.packet_number.append(_NONE if r.packet_number is None else r.packet_number)
            out.dgram_id.append(r.dgram_id)
            out.gso_id.append(_NONE if r.gso_id is None else r.gso_id)
            idx = flow_ids.get(r.flow)
            if idx is None:
                idx = flow_ids[r.flow] = len(out.flows)
                out.flows.append(r.flow)
            out.flow_index.append(idx)
        return out

    def __len__(self) -> int:
        return len(self.time_ns)

    def __iter__(self) -> Iterator[CaptureRecord]:
        return map(self.record, range(len(self)))

    def __getitem__(self, key: Union[int, slice]) -> Union[CaptureRecord, "CaptureColumns"]:
        if isinstance(key, slice):
            return self.select(range(*key.indices(len(self))))
        return self.record(key)

    def __eq__(self, other: object) -> bool:
        """Same rows in the same order (flow tables may be interned differently)."""
        if not isinstance(other, CaptureColumns):
            return NotImplemented
        if any(getattr(self, name) != getattr(other, name) for name in _VALUE_COLUMNS):
            return False
        if self.flows == other.flows:
            return self.flow_index == other.flow_index
        mine, theirs = self.flows, other.flows
        return all(mine[a] == theirs[b] for a, b in zip(self.flow_index, other.flow_index))

    def select(self, indices: Sequence[int]) -> "CaptureColumns":
        """New columns holding only the given rows, with a flow table of just
        the flows those rows reference (so a per-flow selection pickles its
        own flow, not the population's)."""
        out = CaptureColumns()
        for name in _VALUE_COLUMNS:
            src = getattr(self, name)
            getattr(out, name).extend([src[i] for i in indices])
        remap: Dict[int, int] = {}
        flow_index = self.flow_index
        for i in indices:
            old = flow_index[i]
            new = remap.get(old)
            if new is None:
                new = remap[old] = len(out.flows)
                out.flows.append(self.flows[old])
            out.flow_index.append(new)
        return out

    def from_host(self, addr: str) -> "CaptureColumns":
        """The rows whose source address is ``addr``: these columns
        themselves when every row is."""
        flows = self.flows
        rows = [row for row, idx in enumerate(self.flow_index) if flows[idx][0] == addr]
        return self if len(rows) == len(self) else self.select(rows)

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


class Sniffer:
    """Accumulates captures, in arrival order, as columnar arrays; without
    ``per_packet``, only how many frames each flow put on the wire (the
    columns stay empty)."""

    def __init__(self, name: str = "sniffer", per_packet: bool = True):
        self.name: str = name
        self.columns: CaptureColumns = CaptureColumns()
        self._flow_ids: Dict[FlowTuple, int] = {}
        #: Frames per flow when the run keeps no columns, else None.
        self._counts: Optional[Dict[FlowTuple, int]] = None if per_packet else {}

    def capture(self, time_ns: int, dgram: Datagram) -> None:
        flow = dgram.flow
        counts = self._counts
        if counts is not None:
            counts[flow] = counts.get(flow, 0) + 1
            return
        cols = self.columns
        idx = self._flow_ids.get(flow)
        if idx is None:
            idx = len(cols.flows)
            self._flow_ids[flow] = idx
            cols.flows.append(flow)
        cols.time_ns.append(time_ns)
        cols.wire_size.append(dgram.wire_size)
        cols.payload_size.append(dgram.payload_size)
        pn = dgram.packet_number
        cols.packet_number.append(_NONE if pn is None else pn)
        cols.dgram_id.append(dgram.dgram_id)
        gso = dgram.gso_id
        cols.gso_id.append(_NONE if gso is None else gso)
        cols.flow_index.append(idx)

    def frames_per_flow(self) -> Dict[FlowTuple, int]:
        """How many frames each flow put on the wire, kept columns or not."""
        if self._counts is not None:
            return self._counts
        cols = self.columns
        frames = [0] * len(cols.flows)
        for entry in cols.flow_index:
            frames[entry] += 1
        return dict(zip(cols.flows, frames))

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
