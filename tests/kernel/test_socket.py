"""UDP socket model: send staggering, SO_TXTIME gating, GSO wrapping, rcvbuf."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.kernel.gso import GsoBuffer
from repro.kernel.socket import SendSpec, UdpSocket
from repro.kernel.syscall import SyscallModel
from repro.sim.engine import Simulator
from repro.units import kib
from tests.conftest import Collector


def _sock(sim, collector, so_txtime=False, rcvbuf=kib(64)):
    sock = UdpSocket(
        sim,
        "10.0.0.1",
        443,
        egress=collector,
        syscalls=SyscallModel(syscall_ns=100, per_datagram_ns=50, per_byte_ns=0.0),
        so_txtime=so_txtime,
        rcvbuf_bytes=rcvbuf,
    )
    sock.connect("10.0.0.2", 40000)
    return sock


def test_flow_requires_connect(sim, collector):
    sock = UdpSocket(sim, "a", 1, egress=collector)
    with pytest.raises(ConfigError):
        _ = sock.flow


def test_sendmsg_charges_cost_before_enqueue(sim, collector):
    sock = _sock(sim, collector)
    sock.sendmsg(SendSpec(payload=b"x", payload_size=1))
    sim.run()
    assert collector.times == [150]


@given(st.lists(st.integers(min_value=0, max_value=65507), min_size=1, max_size=8))
def test_sendmsg_charges_exactly_the_models_cost(sizes):
    """The socket prices a send itself, in the frame that builds the datagram;
    every send, first or repeated, advances the CPU timeline by exactly
    ``SyscallModel.sendmsg_cost``."""
    sim = Simulator()
    model = SyscallModel()
    sock = UdpSocket(sim, "10.0.0.1", 443, egress=Collector(sim), syscalls=model)
    sock.connect("10.0.0.2", 40000)
    for size in sizes + sizes:
        before = sock.cpu_free_at
        done = sock.sendmsg(SendSpec(payload=None, payload_size=size))
        assert done - before == model.sendmsg_cost(size)
        assert sock.cpu_free_at == done


@given(st.lists(st.lists(st.integers(min_value=0, max_value=65507), max_size=8), min_size=1, max_size=4))
def test_sendmmsg_charges_exactly_the_models_cost(batches):
    """A batch advances the CPU timeline by exactly
    ``SyscallModel.sendmmsg_cost``; each datagram reaches the egress when the
    kernel has paid for it and every datagram before it in the batch."""
    sim = Simulator()
    model = SyscallModel()
    collector = Collector(sim)
    sock = UdpSocket(sim, "10.0.0.1", 443, egress=collector, syscalls=model)
    sock.connect("10.0.0.2", 40000)
    expected_times = []
    for sizes in batches + batches:
        before = sock.cpu_free_at
        done = sock.sendmmsg([SendSpec(payload=None, payload_size=size) for size in sizes])
        if sizes:
            assert done - before == model.sendmmsg_cost(sizes)
            assert sock.cpu_free_at == done
        expected_times += [before + model.sendmmsg_cost(sizes[: i + 1]) for i in range(len(sizes))]
    sim.run()
    assert collector.times == expected_times


def test_consecutive_sends_stagger(sim, collector):
    sock = _sock(sim, collector)
    for _ in range(3):
        sock.sendmsg(SendSpec(payload=b"x", payload_size=1))
    sim.run()
    assert collector.times == [150, 300, 450]


def test_sendmmsg_one_syscall(sim, collector):
    sock = _sock(sim, collector)
    sock.sendmmsg([SendSpec(payload=b"x", payload_size=1) for _ in range(3)])
    sim.run()
    # One 100ns syscall + 50ns per datagram: arrivals at 150, 200, 250.
    assert collector.times == [150, 200, 250]


def test_txtime_dropped_without_so_txtime(sim, collector):
    sock = _sock(sim, collector, so_txtime=False)
    sock.sendmsg(SendSpec(payload=b"x", payload_size=1, txtime_ns=999))
    sim.run()
    assert collector.dgrams[0].txtime_ns is None


def test_txtime_attached_with_so_txtime(sim, collector):
    sock = _sock(sim, collector, so_txtime=True)
    sock.sendmsg(SendSpec(payload=b"x", payload_size=1, txtime_ns=999))
    sim.run()
    assert collector.dgrams[0].txtime_ns == 999


def test_send_gso_wraps_segments(sim, collector):
    sock = _sock(sim, collector, so_txtime=True)
    specs = [SendSpec(payload=b"x", payload_size=100, packet_number=i) for i in range(5)]
    sock.send_gso(specs, txtime_ns=777, pacing_rate_Bps=1000)
    sim.run()
    assert len(collector) == 1
    super_dgram = collector.dgrams[0]
    assert super_dgram.payload_size == 500
    assert super_dgram.txtime_ns == 777
    buffer = super_dgram.payload
    assert isinstance(buffer, GsoBuffer)
    assert len(buffer) == 5
    assert buffer.pacing_rate_Bps == 1000
    assert all(seg.gso_id == super_dgram.gso_id for seg in buffer.segments)


def test_gso_counts_all_datagrams(sim, collector):
    sock = _sock(sim, collector)
    sock.send_gso([SendSpec(payload=b"x", payload_size=10) for _ in range(4)])
    sim.run()
    assert sock.datagrams_sent == 4
    assert sock.gso_sends == 1


def test_receive_buffer_accounts_and_drops(sim):
    sock = UdpSocket(sim, "a", 1, rcvbuf_bytes=250)
    from tests.conftest import make_dgram

    for _ in range(3):
        sock.deliver(make_dgram(100))
    assert sock.rx_pending == 2
    assert sock.rx_dropped == 1
    drained = sock.recv_all()
    assert len(drained) == 2
    assert sock.rx_pending == 0
    # Buffer freed: next delivery accepted.
    sock.deliver(make_dgram(100))
    assert sock.rx_pending == 1


def test_on_readable_callback_fires(sim):
    from tests.conftest import make_dgram

    sock = UdpSocket(sim, "a", 1)
    calls = []
    sock.on_readable = lambda: calls.append(sim.now)
    sock.deliver(make_dgram(10))
    assert calls == [0]


def test_empty_batches_are_noops(sim, collector):
    sock = _sock(sim, collector)
    assert sock.sendmmsg([]) == sim.now
    assert sock.send_gso([]) == sim.now
    sim.run()
    assert len(collector) == 0
