"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
import struct

import pytest

from repro.framework.executors import BACKENDS, make_executor
from repro.sim.engine import Simulator

#: Backends whose workers are processes a fault can kill outright.
LOCAL_POOLS = [
    executor.name for executor in map(make_executor, BACKENDS) if not executor.serial
]


@pytest.fixture(scope="session")
def table_summaries():
    """``table_summaries(name)``: the summaries of a claims table's grid at
    its defaults (its scale), run once per session on first use."""
    from repro.framework.claims import TABLES
    from repro.framework.sweep import SweepRunner

    runs = {}

    def summaries(name):
        if name not in runs:
            grid_of, _rows = TABLES[name]
            runs[name] = SweepRunner().run(grid_of())
        return runs[name]

    return summaries


@pytest.fixture(scope="session")
def paper_summaries(table_summaries):
    """The paper grid at its defaults (4 MiB x 3 repetitions, seed 1)."""
    return table_summaries("paper")


@pytest.fixture(scope="session")
def paper_verdicts(paper_summaries):
    """Every claim's verdict on :func:`paper_summaries`, by claim id."""
    from repro.framework.claims import evaluate

    return {v.claim.id: v for v in evaluate(paper_summaries)}


def assert_claims(verdicts, *ids) -> None:
    """Each named claim has its declared status."""
    wrong = [verdicts[i].describe() for i in ids if not verdicts[i].agrees]
    assert not wrong, "\n".join(wrong)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)


class Collector:
    """A PacketSink that records (time, datagram) pairs."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.items: list[tuple[int, object]] = []

    def receive(self, dgram) -> None:
        self.items.append((self.sim.now, dgram))

    @property
    def dgrams(self):
        return [d for _, d in self.items]

    @property
    def times(self):
        return [t for t, _ in self.items]

    def __len__(self):
        return len(self.items)


@pytest.fixture
def collector(sim) -> Collector:
    return Collector(sim)


def statement_log(store) -> list[str]:
    """Every SQL statement a ``ResultStore`` runs from here on (its commits
    are the ``"COMMIT"`` entries)."""
    statements: list[str] = []
    store._conn.set_trace_callback(statements.append)
    return statements


def flip_capture_byte(path, result) -> None:
    """Flip one bit in the body of the cache entry at ``path``: the low bit
    of ``result``'s last captured timestamp, stored raw in the pickled
    ``array('q')``. The body still unpickles, and the capture stays monotonic,
    so only the entry's digest can tell."""
    data = bytearray(path.read_bytes())
    at = data.rfind(struct.pack("=q", result.server_records.time_ns[-1]))
    assert at > data.index(b"\n"), "timestamp not found in the entry's body"
    data[at] ^= 1
    path.write_bytes(bytes(data))


def make_dgram(size: int = 1252, txtime=None, pn=None, flow=None):
    from repro.net.packet import Datagram

    return Datagram(
        flow=flow or ("10.0.0.1", 443, "10.0.0.2", 40000),
        payload_size=size,
        txtime_ns=txtime,
        packet_number=pn,
    )
