"""One measurement: a single download over the Figure-1 testbed.

The topology (stack -> socket -> qdisc -> GSO -> NIC -> tap -> bottleneck ->
netem -> client) is wired in :mod:`repro.framework.testbed`; this module
configures it for one flow, runs it and collects the result.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.framework.config import ExperimentConfig
from repro.framework.testbed import SERVER_ADDR, Testbed, WiredFlow
from repro.metrics.goodput import goodput_mbps
from repro.net.tap import CaptureColumns, Sniffer
from repro.sim.engine import Simulator
from repro.sim.random import RngRegistry
from repro.units import ms

SERVER_PORT = 443
CLIENT_PORT = 40000

#: RNG stream of each component role (the names are part of every golden).
_RNG_STREAMS = {"nic": "nic", "qdisc": "qdisc", "server": "server-proc", "client": "client-proc"}


#: One capture row as ``json.dumps(asdict(record), sort_keys=True)`` writes
#: it; ``flow`` arrives JSON-encoded, ``gso_id``/``packet_number`` as an int or
#: ``"null"``.
_CAPTURE_ROW = (
    '{"dgram_id": %d, "flow": %s, "gso_id": %s, "packet_number": %s, '
    '"payload_size": %d, "time_ns": %d, "wire_size": %d}'
)

#: Capture rows joined and handed to the hash per chunk, so a 100 MiB
#: transfer's fingerprint never holds its whole encoding in memory.
_CAPTURE_CHUNK_ROWS = 4096


def _encode_capture(cols: CaptureColumns) -> Iterator[bytes]:
    """The capture as the elements of a JSON list (brackets excluded)."""
    flows = [json.dumps(flow) for flow in cols.flows]
    for start in range(0, len(cols), _CAPTURE_CHUNK_ROWS):
        stop = start + _CAPTURE_CHUNK_ROWS
        fields = zip(
            cols.dgram_id[start:stop],
            [flows[i] for i in cols.flow_index[start:stop]],
            ["null" if v < 0 else v for v in cols.gso_id[start:stop]],
            ["null" if v < 0 else v for v in cols.packet_number[start:stop]],
            cols.payload_size[start:stop],
            cols.time_ns[start:stop],
            cols.wire_size[start:stop],
        )
        rows = [_CAPTURE_ROW % row for row in fields]
        yield ((", " if start else "") + ", ".join(rows)).encode()


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    seed: int
    completed: bool
    duration_ns: int
    goodput_mbps: float
    dropped: int
    #: The tap's capture of the server's frames, in arrival order.
    server_records: CaptureColumns
    expected_send_log: List[Tuple[int, int]]
    cwnd_trace: List[Tuple[int, int]] = field(default_factory=list)
    queue_trace: List[Tuple[int, int]] = field(default_factory=list)
    qdisc_stats: dict = field(default_factory=dict)
    server_stats: dict = field(default_factory=dict)
    #: Per-object completion times relative to the request (multi-object runs).
    object_completion_ns: dict = field(default_factory=dict)
    #: Fault-injection drops (impairment stages), as opposed to ``dropped``,
    #: which counts congestion (bottleneck queue-overflow) drops.
    injected_drops: int = 0
    #: Per-stage impairment counters, keyed ``"{dir}/{index}/{kind}"``.
    impairment_stats: dict = field(default_factory=dict)
    #: Execution observability (progress/throughput reporting, not metrics):
    #: simulator events fired and host wall-clock seconds for this repetition.
    events_processed: int = 0
    wall_time_s: float = 0.0

    @property
    def packets_on_wire(self) -> int:
        return len(self.server_records)

    def canonical_encoding(self) -> Iterator[bytes]:
        """The bytes :meth:`fingerprint` hashes, in order.

        Exactly ``json.dumps(payload, sort_keys=True)`` of the deterministic
        fields (config as ``asdict``, capture as one dict per record), but
        written without building that tree: the config contributes its
        memoized sorted JSON, and each capture row is one ``%``-format
        (:func:`_encode_capture`). Every other field goes through
        ``json.dumps`` itself.
        """
        encoded = {
            key: json.dumps(value, sort_keys=True)
            for key, value in (
                ("seed", self.seed),
                ("completed", self.completed),
                ("duration_ns", self.duration_ns),
                ("goodput_mbps", self.goodput_mbps),
                ("dropped", self.dropped),
                ("injected_drops", self.injected_drops),
                ("expected_send_log", self.expected_send_log),
                ("cwnd_trace", self.cwnd_trace),
                ("queue_trace", self.queue_trace),
                ("qdisc_stats", self.qdisc_stats),
                ("server_stats", self.server_stats),
                ("object_completion_ns", self.object_completion_ns),
                ("impairment_stats", self.impairment_stats),
            )
        }
        encoded["config"] = self.config.canonical_json
        opener = "{"
        for key in sorted([*encoded, "server_records"]):
            if key == "server_records":
                yield f'{opener}"server_records": ['.encode()
                yield from _encode_capture(self.server_records)
                yield b"]"
            else:
                yield f'{opener}"{key}": {encoded[key]}'.encode()
            opener = ", "
        yield b"}"

    def fingerprint(self) -> str:
        """Stable digest of every *deterministic* field of this result.

        Covers config, seed, timings, traces, captures, and all counters;
        excludes execution observability (``wall_time_s``,
        ``events_processed``), which legitimately varies between hosts,
        worker counts, and cache hits. Two runs of the same (config, seed)
        must produce equal fingerprints regardless of serial/parallel/cached
        execution — the determinism test suite pins exactly that.

        Computed from the fields on every call (results are mutable and
        ``dataclasses.replace`` copies must digest fresh); callers that need
        it more than once per result pass it along.
        """
        digest = hashlib.sha256()
        for chunk in self.canonical_encoding():
            digest.update(chunk)
        return digest.hexdigest()

    def validate(self) -> None:
        """Check this result against the framework's conservation invariants.

        Raises :class:`~repro.errors.ValidationError` naming the violated
        invariant. The sweep layer calls this on every repetition before it
        is cached or summarized; it is exposed here so artifact consumers can
        re-check deserialized results.
        """
        from repro.framework.validate import validate_result

        validate_result(self)


class Experiment:
    """Builds and runs one repetition of a configured measurement."""

    def __init__(self, config: ExperimentConfig, seed: Optional[int] = None):
        config.validate()
        cfg = self.config = config
        self.seed = config.seed if seed is None else seed
        self.rngs = RngRegistry(self.seed)
        self.sim = Simulator()
        self.sniffer = Sniffer()

        # One flow, wired straight to the shared paths.
        testbed = Testbed(self.sim, self.rngs, cfg.network, self.sniffer, ecn=cfg.ecn)
        flow = WiredFlow(
            testbed,
            cfg,
            "server",
            SERVER_PORT,
            CLIENT_PORT,
            rng_for=lambda role: self.rngs.stream(_RNG_STREAMS[role]),
        )
        testbed.deliver_to(flow.client_sock, flow.server_sock)
        self.bottleneck = testbed.bottleneck
        self.fwd_impairments = testbed.fwd_impairments
        self.rev_impairments = testbed.rev_impairments
        self.server_sock, self.client_sock = flow.server_sock, flow.client_sock
        self.qdisc, self.segmenter = flow.qdisc, flow.segmenter
        self.profile, self.server_cc = flow.profile, flow.server_cc
        self.server, self.client = flow.server, flow.client
        self.tcp_sender, self.tcp_receiver = flow.tcp_sender, flow.tcp_receiver

        self.bottleneck.trace_queue = cfg.trace_queue
        if cfg.trace_cwnd:
            self.server_cc.enable_trace()
        self.qlog_trace = None
        if cfg.qlog and self.server is not None:
            from repro.quic.qlog import QlogTrace, attach_qlog

            trace = self.qlog_trace = QlogTrace(f"{cfg.label} seed={self.seed}")
            attach_qlog(self.server.conn, trace)
            hook = lambda name, time_ns, data: trace.log(time_ns, name, **data)
            for stage in (*self.fwd_impairments, *self.rev_impairments):
                stage.on_event = hook

    # -- run -----------------------------------------------------------------

    def run(self) -> ExperimentResult:
        wall_start = time.perf_counter()
        cfg = self.config
        if cfg.stack == "tcp":
            self.tcp_sender.start()
            is_done = lambda: self.tcp_receiver.done
        else:
            self.client.start()
            is_done = lambda: self.client.done

        chunk = ms(200)
        while not is_done() and self.sim.now < cfg.max_sim_time_ns:
            before = self.sim.events_processed
            self.sim.run(until=self.sim.now + chunk)
            if self.sim.events_processed == before and self.sim.peek_time() is None:
                break  # stalled: no pending events and not complete

        completed = is_done()
        if cfg.stack == "tcp":
            start = self.tcp_sender.started_at or 0
            end = self.tcp_receiver.completed_at or self.sim.now
        else:
            start = self.client.request_sent_at or 0
            end = self.client.completed_at or self.sim.now
        duration = max(end - start, 1)

        records = self.sniffer.from_host(SERVER_ADDR)
        object_times = (
            {sid: t - start for sid, t in self.client.object_completed_at.items()}
            if self.client
            else {}
        )
        expected_log = list(self.server.expected_send_log) if self.server else []
        server_stats = self._server_stats()
        impairment_stats = {
            stage.name: stage.stats.as_dict()
            for stage in (*self.fwd_impairments, *self.rev_impairments)
        }
        injected = sum(s["injected_drops"] for s in impairment_stats.values())
        return ExperimentResult(
            config=cfg,
            seed=self.seed,
            completed=completed,
            duration_ns=duration,
            goodput_mbps=goodput_mbps(cfg.file_size, duration),
            dropped=self.bottleneck.dropped,
            server_records=records,
            expected_send_log=expected_log,
            cwnd_trace=self.server_cc.cwnd_trace,
            queue_trace=list(self.bottleneck.queue_trace),
            qdisc_stats=self.qdisc.stats.as_dict(),
            server_stats=server_stats,
            object_completion_ns=object_times,
            injected_drops=injected,
            impairment_stats=impairment_stats,
            events_processed=self.sim.events_processed,
            wall_time_s=time.perf_counter() - wall_start,
        )

    def _server_stats(self) -> dict:
        if self.config.stack == "tcp":
            return {
                "retransmissions": self.tcp_sender.retransmissions,
                "acks_received": 0,
            }
        conn = self.server.conn
        return {
            "packets_sent": conn.packets_sent,
            "stream_bytes_retx": conn.stream_bytes_retx,
            "spurious_loss_events": conn.spurious_loss_events,
            "lost_packets_total": conn.recovery.lost_packets_total,
            "congestion_events": conn.cc.congestion_events,
            "rollbacks": getattr(conn.cc, "rollbacks", 0),
            "gso_buffers": self.segmenter.buffers_split,
        }


def run_experiment(config: ExperimentConfig, seed: Optional[int] = None) -> ExperimentResult:
    """Convenience: build and run one repetition."""
    return Experiment(config, seed=seed).run()
