"""The per-layer ledger: which entry points are spanned, and how span
aggregates and object counters become the ``per_layer`` metrics of
``BENCHMARK.json``.

A layer is a top-level package under ``src/repro``. Its entry points are the
public methods other layers call plus the methods it hands to the engine as
event callbacks (``_drain``, ``_finish``, ...): the engine calling a callback
is a call into the layer, and leaving those out would book their time to
``sim``. Scheduling calls a layer makes *into* the engine are not spanned and
stay with the caller.

Time-per-unit metrics use span **self** time, so a layer's numbers add up to
its ``*_share`` instead of counting nested calls twice.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Mapping

from .tracer import Tracer

#: (module, class, methods, family) — see :meth:`Tracer.install_methods`.
METHOD_TARGETS = (
    ("repro.sim.engine", "Simulator", ("run",), False),
    ("repro.stacks.base", "ServerDriver", ("on_wakeup",), False),
    ("repro.stacks.client", "ClientDriver", ("on_wakeup", "start"), False),
    (
        "repro.quic.connection",
        "Connection",
        ("build_packet", "on_datagram", "on_packet_sent", "on_timeout",
         "next_timeout", "wants_to_send", "pacing_rate_bps"),
        False,
    ),
    (
        "repro.cc",
        "CongestionController",
        ("on_packets_acked", "on_packets_lost", "on_packet_sent", "can_send",
         "pacing_rate_bps", "on_rate_sample", "on_spurious_loss"),
        True,
    ),
    ("repro.pacing", "Pacer", ("release_time", "commit", "update_rate"), True),
    (
        "repro.kernel.socket",
        "UdpSocket",
        ("sendmsg", "sendmmsg", "send_gso", "recv_all", "deliver", "_to_egress"),
        False,
    ),
    (
        "repro.kernel.qdisc",
        "Qdisc",
        ("enqueue", "receive", "emit", "_release", "_drain", "_drain_one", "_watchdog"),
        True,
    ),
    ("repro.kernel.gso", "GsoSegmenter", ("receive", "_emit"), False),
    ("repro.net.nic", "Nic", ("receive", "_emit"), False),
    ("repro.net.link", "Link", ("receive", "_finish"), False),
    ("repro.net.tap", "FiberTap", ("receive",), False),
    ("repro.net.tap", "Sniffer", ("capture",), False),
    ("repro.net.bottleneck", "Bottleneck", ("receive", "_drain"), False),
    ("repro.net.impairments", "ImpairmentStage", ("receive", "_forward"), True),
    ("repro.net.demux", "PortDemux", ("receive",), False),
    ("repro.tcp.sender", "TcpSender", ("start", "_on_readable", "_on_rto"), False),
    ("repro.tcp.receiver", "TcpReceiver", ("_on_readable", "_send_ack"), False),
    ("repro.framework.experiment", "Experiment", ("__init__", "run"), False),
    ("repro.framework.multiflow", "MultiFlowExperiment", ("__init__", "run"), False),
    ("repro.framework.experiment", "ExperimentResult", ("fingerprint",), False),
    ("repro.framework.multiflow", "MultiFlowResult", ("fingerprint",), False),
    ("repro.framework.population", "PopulationResult", ("fingerprint",), False),
    ("repro.framework.cache", "ResultCache", ("get", "put"), False),
    ("repro.framework.journal", "SweepJournal", ("record_success",), False),
    ("repro.framework.store", "ResultStore", ("record_result",), False),
    ("repro.framework.supervision", "Supervisor", ("run",), False),
    ("repro.framework.sweep", "SweepRunner", ("run",), False),
)

#: Module globals called from inside their own module (see
#: :meth:`Tracer.install_function`). The bulk workloads call
#: ``validate_result`` themselves, under the same span name.
FUNCTION_TARGETS = (
    ("repro.framework.population", "aggregate_population"),
    ("repro.framework.sweep", "validate_result"),
)

#: Classes whose instances carry the counters read by :func:`read_counters`.
REGISTRY_TARGETS = (
    ("repro.sim.engine", "Simulator"),
    ("repro.quic.connection", "Connection"),
    ("repro.cc", "CongestionController"),
    ("repro.kernel.socket", "UdpSocket"),
    ("repro.kernel.qdisc", "Qdisc"),
    ("repro.net.bottleneck", "Bottleneck"),
    ("repro.net.impairments", "ImpairmentStage"),
    ("repro.tcp.sender", "TcpSender"),
)

#: counter name -> (registered class, reader of one instance)
_COUNTERS: Dict[str, "tuple[str, Callable[[Any], int]]"] = {
    "events": ("Simulator", lambda s: s.events_processed),
    "stream_bytes_sent": ("Connection", lambda c: c.stream_bytes_sent),
    "stream_bytes_retx": ("Connection", lambda c: c.stream_bytes_retx),
    "lost_pkts": ("Connection", lambda c: c.recovery.lost_packets_total),
    "spurious_losses": ("Connection", lambda c: c.spurious_loss_events),
    "congestion_events": ("CongestionController", lambda c: c.congestion_events),
    "rollbacks": ("CongestionController", lambda c: getattr(c, "rollbacks", 0)),
    "datagrams_sent": ("UdpSocket", lambda s: s.datagrams_sent),
    "gso_buffers": ("UdpSocket", lambda s: s.gso_sends),
    "qdisc_drops": ("Qdisc", lambda q: q.stats.dropped),
    "bottleneck_drops": ("Bottleneck", lambda b: b.dropped),
    "injected_drops": ("ImpairmentStage", lambda s: s.stats.injected_drops),
    "tcp_segments": ("TcpSender", lambda t: t.socket.datagrams_sent),
    "tcp_retransmissions": ("TcpSender", lambda t: t.retransmissions),
}


def install(tracer: Tracer) -> None:
    """Wrap every entry point above. Call before any simulator object exists."""
    for module, cls, methods, family in METHOD_TARGETS:
        tracer.install_methods(module, cls, methods, family)
    for module, name in FUNCTION_TARGETS:
        tracer.install_function(module, name)
    for module, cls in REGISTRY_TARGETS:
        tracer.install_registry(module, cls)


def read_counters(tracer: Tracer) -> Dict[str, int]:
    """Sum the program's own counters over the objects built since the last
    ``tracer.take()``. A counter this tree no longer has reads 0 and is named
    in ``tracer.missing``."""
    out: Dict[str, int] = {}
    for name, (cls, read) in _COUNTERS.items():
        try:
            out[name] = sum(read(obj) for obj in tracer.instances.get(cls, ()))
        except AttributeError:
            out[name] = 0
            if f"counter {name}" not in tracer.missing:
                tracer.missing.append(f"counter {name}")
    return out


# -- metric formulas --------------------------------------------------------

#: Per-layer metrics that are deterministic counts: they must repeat
#: bit-for-bit between passes, runs and (for a pure speed-up) commits.
EXACT = frozenset(
    {
        "sim.events", "sim.events_per_wire_pkt", "stacks.wakeups", "stacks.pkts_per_wakeup",
        "quic.build_calls", "quic.retx_bytes_share", "quic.lost_pkts", "quic.spurious_losses",
        "cc.calls", "cc.congestion_events", "cc.rollbacks", "pacing.calls",
        "kernel.syscalls", "kernel.pkts_per_syscall", "kernel.gso_buffers", "kernel.qdisc_drops",
        "net.bottleneck_drops", "net.injected_drops", "tcp.segments", "tcp.retransmissions",
    }
)

LAYERS = ("sim", "stacks", "quic", "cc", "pacing", "kernel", "net", "tcp", "metrics", "framework")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Ledger:
    """Sums over the traced passes of one workload; :meth:`metrics` turns them
    into the per-layer metrics.

    ``passes`` are the worker's traced pass records: ``wall_ns``, ``spans``
    (name -> [count, total_ns, self_ns]), ``counters``, ``wire_pkts``,
    ``reps``. Counts are deterministic, so the *per-pass* value of an exact
    metric is the sum divided by the number of passes.
    """

    def __init__(self, passes: Iterable[Mapping[str, Any]]):
        self.walls_ns: List[int] = []
        self.wire_pkts = 0
        self.reps = 0
        self.spans: Dict[str, List[int]] = {}
        self.counters: Dict[str, int] = {}
        for record in passes:
            self.walls_ns.append(record["wall_ns"])
            self.wire_pkts += record["wire_pkts"]
            self.reps += record["reps"]
            for name, (count, total, self_ns) in record["spans"].items():
                agg = self.spans.setdefault(name, [0, 0, 0])
                agg[0] += count
                agg[1] += total
                agg[2] += self_ns
            for name, value in record["counters"].items():
                self.counters[name] = self.counters.get(name, 0) + value

    def count(self, *prefixes: str) -> int:
        return sum(a[0] for n, a in self.spans.items() if n.startswith(prefixes))

    def self_us(self, *prefixes: str) -> float:
        return sum(a[2] for n, a in self.spans.items() if n.startswith(prefixes)) / 1e3

    def share(self, layer: str) -> float:
        return _ratio(self.self_us(layer + "."), sum(self.walls_ns) / 1e3)

    def per_pass(self, value: float) -> float:
        return _ratio(value, len(self.walls_ns))

    def metrics(self, untraced: Mapping[str, float]) -> Dict[str, float]:
        """Every ``per_layer`` metric. ``untraced`` carries what only the
        untraced, in-process reference passes can say: ``wall_s`` (median),
        ``sim_wall_s``, ``cpu_s``, ``disk_bytes`` (per-pass means), and
        ``traced_x`` (median traced ÷ median untraced pass, both in reference
        seconds because the two sets of passes do not share a moment)."""
        c = self.counters
        count, self_us, per_pass = self.count, self.self_us, self.per_pass
        pkts = self.wire_pkts
        reps = self.reps
        events = c.get("events", 0)
        wakeups = count("stacks.ServerDriver.on_wakeup", "stacks.ClientDriver.on_wakeup")
        quic_sent = count("quic.Connection.on_packet_sent")
        syscalls = count(
            "kernel.UdpSocket.sendmsg", "kernel.UdpSocket.sendmmsg", "kernel.UdpSocket.send_gso"
        )
        segments = c.get("tcp_segments", 0)
        reps_per_pass = per_pass(reps)
        overhead_s = untraced["wall_s"] - untraced["sim_wall_s"]
        shares = {layer: self.share(layer) for layer in LAYERS}
        return {
            "sim.events": per_pass(events),
            "sim.events_per_wire_pkt": _ratio(events, pkts),
            "sim.self_us_per_event": _ratio(self_us("sim."), events),
            "sim.self_share": shares["sim"],
            "stacks.wakeups": per_pass(wakeups),
            "stacks.pkts_per_wakeup": _ratio(quic_sent, wakeups),
            "stacks.self_us_per_wakeup": _ratio(self_us("stacks."), wakeups),
            "stacks.self_share": shares["stacks"],
            "quic.build_calls": per_pass(count("quic.Connection.build_packet")),
            "quic.build_us_per_pkt": _ratio(self_us("quic.Connection.build_packet"), quic_sent),
            "quic.recv_us_per_dgram": _ratio(
                self_us("quic.Connection.on_datagram"), count("quic.Connection.on_datagram")
            ),
            "quic.sent_us_per_pkt": _ratio(self_us("quic.Connection.on_packet_sent"), quic_sent),
            "quic.poll_us_per_wakeup": _ratio(
                self_us(
                    "quic.Connection.wants_to_send",
                    "quic.Connection.next_timeout",
                    "quic.Connection.on_timeout",
                ),
                wakeups,
            ),
            "quic.retx_bytes_share": _ratio(
                c.get("stream_bytes_retx", 0), c.get("stream_bytes_sent", 0)
            ),
            "quic.lost_pkts": per_pass(c.get("lost_pkts", 0)),
            "quic.spurious_losses": per_pass(c.get("spurious_losses", 0)),
            "quic.self_share": shares["quic"],
            "cc.calls": per_pass(count("cc.")),
            "cc.self_us_per_ack": _ratio(
                self_us("cc."), count("cc.CongestionController.on_packets_acked")
            ),
            "cc.congestion_events": per_pass(c.get("congestion_events", 0)),
            "cc.rollbacks": per_pass(c.get("rollbacks", 0)),
            "cc.self_share": shares["cc"],
            "pacing.calls": per_pass(count("pacing.")),
            "pacing.self_us_per_pkt": _ratio(self_us("pacing."), quic_sent),
            "pacing.self_share": shares["pacing"],
            "kernel.syscalls": per_pass(syscalls),
            "kernel.pkts_per_syscall": _ratio(c.get("datagrams_sent", 0), syscalls),
            "kernel.sock_us_per_syscall": _ratio(
                self_us(
                    "kernel.UdpSocket.sendmsg",
                    "kernel.UdpSocket.sendmmsg",
                    "kernel.UdpSocket.send_gso",
                ),
                syscalls,
            ),
            "kernel.qdisc_us_per_pkt": _ratio(
                self_us("kernel.Qdisc."), count("kernel.Qdisc.receive")
            ),
            "kernel.gso_us_per_pkt": _ratio(
                self_us("kernel.GsoSegmenter."), count("kernel.GsoSegmenter._emit")
            ),
            "kernel.gso_buffers": per_pass(c.get("gso_buffers", 0)),
            "kernel.qdisc_drops": per_pass(c.get("qdisc_drops", 0)),
            "kernel.self_share": shares["kernel"],
            "net.nic_us_per_pkt": _ratio(self_us("net.Nic."), count("net.Nic.receive")),
            "net.link_us_per_pkt": _ratio(self_us("net.Link."), count("net.Link.receive")),
            "net.capture_us_per_pkt": _ratio(
                self_us("net.FiberTap.", "net.Sniffer."), count("net.FiberTap.receive")
            ),
            "net.bottleneck_us_per_pkt": _ratio(
                self_us("net.Bottleneck."), count("net.Bottleneck.receive")
            ),
            "net.impair_us_per_pkt": _ratio(
                self_us("net.ImpairmentStage."), count("net.ImpairmentStage.receive")
            ),
            "net.demux_us_per_pkt": _ratio(
                self_us("net.PortDemux."), count("net.PortDemux.receive")
            ),
            "net.bottleneck_drops": per_pass(c.get("bottleneck_drops", 0)),
            "net.injected_drops": per_pass(c.get("injected_drops", 0)),
            "net.self_share": shares["net"],
            "tcp.segments": per_pass(segments),
            "tcp.self_us_per_seg": _ratio(self_us("tcp."), segments),
            "tcp.retransmissions": per_pass(c.get("tcp_retransmissions", 0)),
            "tcp.self_share": shares["tcp"],
            "metrics.gaps_us_per_pkt": _ratio(self_us("metrics.gaps"), pkts),
            "metrics.trains_us_per_pkt": _ratio(self_us("metrics.trains"), pkts),
            "metrics.precision_us_per_pkt": _ratio(self_us("metrics.precision"), pkts),
            "metrics.self_share": shares["metrics"],
            "framework.build_ms_per_rep": _ratio(
                self_us("framework.Experiment.__init__", "framework.MultiFlowExperiment.__init__"),
                reps * 1e3,
            ),
            "framework.collect_ms_per_rep": _ratio(
                self_us("framework.Experiment.run", "framework.MultiFlowExperiment.run"),
                reps * 1e3,
            ),
            "framework.fingerprint_us_per_pkt": _ratio(
                self_us(
                    "framework.ExperimentResult.fingerprint",
                    "framework.MultiFlowResult.fingerprint",
                    "framework.PopulationResult.fingerprint",
                ),
                pkts,
            ),
            "framework.validate_ms_per_rep": _ratio(
                self_us("framework.validate_result"), reps * 1e3
            ),
            "framework.cache_put_ms_per_rep": _ratio(
                self_us("framework.ResultCache.put"), reps * 1e3
            ),
            "framework.cache_get_ms_per_rep": _ratio(
                self_us("framework.ResultCache.get"), reps * 1e3
            ),
            "framework.journal_ms_per_rep": _ratio(
                self_us("framework.SweepJournal."), reps * 1e3
            ),
            "framework.store_ingest_ms_per_rep": _ratio(
                self_us("framework.ResultStore."), reps * 1e3
            ),
            "framework.parent_cpu_ms_per_rep": _ratio(untraced["cpu_s"] * 1e3, reps_per_pass),
            "framework.overhead_ms_per_rep": _ratio(overhead_s * 1e3, reps_per_pass),
            "framework.overhead_share": _ratio(overhead_s, untraced["wall_s"]),
            "framework.disk_kib_per_rep": _ratio(untraced["disk_bytes"] / 1024, reps_per_pass),
            "framework.aggregate_ms": per_pass(self_us("framework.aggregate_population") / 1e3),
            "framework.self_share": shares["framework"],
            "trace.overhead_x": untraced["traced_x"],
            "trace.unattributed_share": 1.0 - sum(shares.values()),
        }
