"""Passive optical fiber tap and sniffer.

The paper captures packets *on the wire between server and bottleneck* with a
passive optical tap feeding a MoonGen sniffer (timestamp resolution < 2 ns),
so that measurement neither perturbs the connection nor is re-shaped by the
network emulation. In simulation the tap is a zero-delay pass-through feeding
a :class:`Sniffer`.

The tap is also where a run's packets enter its behaviour digest: the
:class:`Sniffer` folds every frame, as it passes, into a per-flow
``blake2b`` (:data:`_FRAME`), whether or not it keeps the frame. The digest
therefore never depends on what a run kept, and costs 448 B per flow.

The capture, when kept, is **columnar** end to end: :class:`CaptureColumns`
holds seven parallel ``array('q')`` columns plus an interned flow table,
appended in arrival order, and that object is what a result carries, what
validation and metrics read, and what crosses a pickle boundary. A
:class:`CaptureRecord` is one row of it, built on demand when a caller
indexes or iterates the columns.
"""

from __future__ import annotations

import hashlib
import struct
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

#: One frame as the per-flow wire digest folds it: the value columns, in
#: order, ``None`` as :data:`_NONE`.
_FRAME: Final = struct.Struct("<6q")
_pack_frame = _FRAME.pack
_DIGEST_BYTES: Final = 16

#: The wire digest of a flow that put no frame on the wire.
NO_FRAMES: Final = hashlib.blake2b(digest_size=_DIGEST_BYTES).hexdigest()


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


class _FlowTap:
    """What the sniffer keeps per flow: its frames, their digest so far and
    its row in the columns' flow table."""

    __slots__ = ("frames", "digest", "index")

    def __init__(self, index: int):
        self.frames = 0
        self.digest = hashlib.blake2b(digest_size=_DIGEST_BYTES)
        self.index = index


class Sniffer:
    """Folds every frame into its flow's wire digest and counts it; with
    ``per_packet`` also keeps it, in arrival order, as columnar arrays
    (without, the columns stay empty)."""

    def __init__(self, name: str = "sniffer", per_packet: bool = True):
        self.name: str = name
        self.per_packet: bool = per_packet
        self.columns: CaptureColumns = CaptureColumns()
        self._flows: Dict[FlowTuple, _FlowTap] = {}

    def capture(self, time_ns: int, dgram: Datagram) -> None:
        flow = dgram.flow
        tap = self._flows.get(flow)
        if tap is None:
            tap = self._flows[flow] = _FlowTap(len(self._flows))
            if self.per_packet:
                self.columns.flows.append(flow)
        tap.frames += 1
        wire, payload, dgram_id = dgram.wire_size, dgram.payload_size, dgram.dgram_id
        pn = dgram.packet_number
        if pn is None:
            pn = _NONE
        gso = dgram.gso_id
        if gso is None:
            gso = _NONE
        tap.digest.update(_pack_frame(time_ns, wire, payload, pn, dgram_id, gso))
        if not self.per_packet:
            return
        cols = self.columns
        cols.time_ns.append(time_ns)
        cols.wire_size.append(wire)
        cols.payload_size.append(payload)
        cols.packet_number.append(pn)
        cols.dgram_id.append(dgram_id)
        cols.gso_id.append(gso)
        cols.flow_index.append(tap.index)

    def per_flow(self) -> Dict[FlowTuple, Tuple[int, str]]:
        """Each flow's frames on the wire and their digest (hex), kept
        columns or not."""
        return {flow: (tap.frames, tap.digest.hexdigest()) for flow, tap in self._flows.items()}

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
