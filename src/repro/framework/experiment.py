"""One measurement: a single download over the Figure-1 testbed.

It is the run of :mod:`repro.framework.multiflow` at N = 1, its flow
described by the :class:`ExperimentConfig` itself; :class:`ExperimentResult`
is that flow's view of the run, and its fingerprint encoding.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from repro.framework.config import ExperimentConfig
from repro.framework.multiflow import FlowSpec, MultiFlowExperiment, MultiFlowResult
from repro.net.tap import CaptureColumns
from repro.stacks.base import SendLog


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
    "qdisc_stats", "server_stats", "object_completion_ns", "impairment_stats",
)

#: The per-packet outputs (O(packets) or O(events) long) and how one element
#: of each is written, exactly as ``json.dumps`` writes it.
_PER_PACKET = {
    "expected_send_log": "[%d, %d]".__mod__,
    "cwnd_trace": json.dumps,
    "queue_trace": json.dumps,
}

#: Capture rows or list elements encoded and handed to the hash per chunk:
#: a fingerprint holds one chunk's encoding at a time (tens of KiB), never a
#: whole per-packet output's, whatever the transfer's length.
_CHUNK_ROWS = 256


def _encode_capture(cols: CaptureColumns) -> Iterator[bytes]:
    """The capture as a JSON list of row objects, one chunk at a time."""
    flows = [json.dumps(flow) for flow in cols.flows]
    yield b"["
    for start in range(0, len(cols), _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
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
    yield b"]"


def _encode_list(items: Iterable, element: Callable[[Any], str]) -> Iterator[bytes]:
    """``json.dumps(list(items))``, one chunk of ``element``-written items at a time."""
    items = iter(items)
    yield b"["
    separator = ""
    while chunk := list(islice(items, _CHUNK_ROWS)):
        yield (separator + ", ".join(map(element, chunk))).encode()
        separator = ", "
    yield b"]"


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
    #: The server's expected send time per packet (empty for TCP).
    expected_send_log: SendLog
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
        building that tree or any whole per-packet output: the capture
        (:func:`_encode_capture`) and each per-packet list
        (:func:`_encode_list`) go out ``_CHUNK_ROWS`` elements at a time,
        every other field through ``json.dumps`` itself. The config is not
        part of it.
        """
        opener = "{"
        for key in sorted((*_ENCODED, *_PER_PACKET, "server_records")):
            yield f'{opener}"{key}": '.encode()
            value = getattr(self, key)
            if key == "server_records":
                yield from _encode_capture(value)
            elif key in _PER_PACKET:
                yield from _encode_list(value, _PER_PACKET[key])
            else:
                yield json.dumps(value, sort_keys=True).encode()
            opener = ", "
        yield b"}"

    def fingerprint(self) -> str:
        """The behaviour digest: the seed and every deterministic output.

        It excludes the config, the repetition's identity (its store row and
        cache key), and execution observability (``wall_time_s``,
        ``events_processed``), so two spellings of one behaviour digest
        equal and serial, parallel and cached runs of a (config, seed) agree.
        O(packets) in time, so it is taken once per computed repetition and
        kept with the cache entry and store row; in memory it holds one
        chunk at a time (a peak of ≈ 0.2 MB), never a whole per-packet
        output's encoding. A change to the bytes :meth:`canonical_encoding`
        yields needs a ``CACHE_VERSION`` and ``STORE_VERSION`` bump.
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
