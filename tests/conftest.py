"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.framework.executors import BACKENDS, make_executor
from repro.sim.engine import Simulator

#: Backends whose workers are processes a fault can kill outright.
LOCAL_POOLS = [
    executor.name for executor in map(make_executor, BACKENDS) if not executor.serial
]


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


def make_dgram(size: int = 1252, txtime=None, pn=None, flow=None):
    from repro.net.packet import Datagram

    return Datagram(
        flow=flow or ("10.0.0.1", 443, "10.0.0.2", 40000),
        payload_size=size,
        txtime_ns=txtime,
        packet_number=pn,
    )
