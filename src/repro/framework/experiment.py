"""One measurement: a single download over the Figure-1 testbed.

It is the run of :mod:`repro.framework.multiflow` at N = 1, its flow
described by the :class:`ExperimentConfig` itself; :class:`ExperimentResult`
is that flow's view of the run, and its fingerprint encoding.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.framework.config import ExperimentConfig
from repro.framework.multiflow import FlowSpec, MultiFlowExperiment, MultiFlowResult
from repro.net.tap import CaptureColumns


#: One capture row as ``json.dumps(asdict(record), sort_keys=True)`` writes
#: it; ``flow`` arrives JSON-encoded, ``gso_id``/``packet_number`` as an int or
#: ``"null"``.
_CAPTURE_ROW = (
    '{"dgram_id": %d, "flow": %s, "gso_id": %s, "packet_number": %s, '
    '"payload_size": %d, "time_ns": %d, "wire_size": %d}'
)

#: What the fingerprint covers besides the capture: the seed and the outputs.
_ENCODED = (
    "seed", "completed", "duration_ns", "goodput_mbps", "dropped", "injected_drops",
    "expected_send_log", "cwnd_trace", "queue_trace", "qdisc_stats", "server_stats",
    "object_completion_ns", "impairment_stats",
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

    @classmethod
    def view(cls, config: ExperimentConfig, run: MultiFlowResult) -> "ExperimentResult":
        """A one-flow run as its flow sees it: the shared path's counters
        (drops, impairment stages, queue trace) are all its own."""
        flow = run.flows[0]
        return cls(
            config=config,
            seed=run.seed,
            completed=flow.completed,
            duration_ns=flow.duration_ns,
            goodput_mbps=flow.goodput_mbps,
            dropped=run.total_dropped,
            server_records=flow.records,
            expected_send_log=flow.expected_send_log,
            cwnd_trace=flow.cwnd_trace,
            queue_trace=run.queue_trace,
            qdisc_stats=flow.qdisc_stats,
            server_stats=flow.server_stats,
            object_completion_ns=flow.object_completion_ns,
            injected_drops=run.injected_drops + run.ack_drops,
            impairment_stats=run.impairment_stats,
            events_processed=run.events_processed,
            wall_time_s=run.wall_time_s,
        )

    @property
    def packets_on_wire(self) -> int:
        return len(self.server_records)

    def canonical_encoding(self) -> Iterator[bytes]:
        """The bytes :meth:`fingerprint` hashes, in order.

        Exactly ``json.dumps(payload, sort_keys=True)`` of the seed and the
        outputs (capture as one dict per record), but written without
        building that tree: each capture row is one ``%``-format
        (:func:`_encode_capture`), every other field goes through
        ``json.dumps`` itself. The config is not part of it.
        """
        opener = "{"
        for key in sorted((*_ENCODED, "server_records")):
            if key == "server_records":
                yield f'{opener}"server_records": ['.encode()
                yield from _encode_capture(self.server_records)
                yield b"]"
            else:
                yield f'{opener}"{key}": {json.dumps(getattr(self, key), sort_keys=True)}'.encode()
            opener = ", "
        yield b"}"

    def fingerprint(self) -> str:
        """The behaviour digest: the seed and every deterministic output.

        It excludes the config, the repetition's identity (its store row and
        cache key), and execution observability (``wall_time_s``,
        ``events_processed``), so two spellings of one behaviour digest
        equal and serial, parallel and cached runs of a (config, seed) agree.
        O(packets), so it is taken once per computed repetition and kept with
        the cache entry and store row; a change to the bytes
        :meth:`canonical_encoding` yields needs a ``CACHE_VERSION`` and
        ``STORE_VERSION`` bump.
        """
        digest = hashlib.sha256()
        for chunk in self.canonical_encoding():
            digest.update(chunk)
        return digest.hexdigest()


class Experiment(MultiFlowExperiment):
    """One repetition of a configured measurement: the run at N = 1, its one
    flow wired from ``config`` itself."""

    def __init__(self, config: ExperimentConfig, seed: Optional[int] = None):
        self.config = config
        spec = FlowSpec(
            config.stack, config.cca, config.qdisc, config.gso, config.params, config.file_size
        )
        super().__init__(
            [spec],
            network=config.network,
            seed=config.seed if seed is None else seed,
            max_sim_time_ns=config.max_sim_time_ns,
            configs=[config],
        )

    def run(self) -> ExperimentResult:
        return ExperimentResult.view(self.config, super().run())


def run_experiment(config: ExperimentConfig, seed: Optional[int] = None) -> ExperimentResult:
    """Convenience: build and run one repetition."""
    return Experiment(config, seed=seed).run()
