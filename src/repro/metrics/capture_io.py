"""Capture import/export (CSV).

The paper publishes its raw packet captures; this module lets the same
evaluation pipeline (gaps, trains, precision, burst cycles) run on external
capture data. The CSV schema is one frame per row::

    time_ns,wire_size,payload_size,src,src_port,dst,dst_port,packet_number,gso_id

Only ``time_ns`` and ``wire_size`` are required; missing columns default
sensibly, so a two-column export from tshark
(``tshark -T fields -e frame.time_epoch -e frame.len``) works after scaling
seconds to nanoseconds.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterator, Optional

from repro.errors import ConfigError
from repro.net.tap import CaptureColumns, CaptureRecord

CSV_FIELDS = [
    "time_ns",
    "wire_size",
    "payload_size",
    "src",
    "src_port",
    "dst",
    "dst_port",
    "packet_number",
    "gso_id",
]


def save_capture(records: CaptureColumns, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_FIELDS)
        for r in records:
            writer.writerow(
                [
                    r.time_ns,
                    r.wire_size,
                    r.payload_size,
                    r.flow[0],
                    r.flow[1],
                    r.flow[2],
                    r.flow[3],
                    "" if r.packet_number is None else r.packet_number,
                    "" if r.gso_id is None else r.gso_id,
                ]
            )
    return path


def _opt_int(value: str) -> Optional[int]:
    return int(value) if value not in ("", None) else None


def _rows(reader: csv.DictReader, path: Path, strict: bool) -> Iterator[CaptureRecord]:
    previous: Optional[int] = None
    for i, row in enumerate(reader):
        try:
            time_ns = int(float(row["time_ns"]))
            wire_size = int(row.get("wire_size") or 0)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: bad row {i + 2}: {exc}") from exc
        if strict and previous is not None and time_ns < previous:
            raise ConfigError(
                f"{path}: row {i + 2} is out of order "
                f"({time_ns} < {previous}); "
                "re-export in timestamp order or load with strict=False"
            )
        previous = time_ns
        yield CaptureRecord(
            time_ns=time_ns,
            wire_size=wire_size,
            payload_size=int(row.get("payload_size") or max(wire_size - 42, 0)),
            flow=(
                row.get("src") or "unknown",
                int(row.get("src_port") or 0),
                row.get("dst") or "unknown",
                int(row.get("dst_port") or 0),
            ),
            packet_number=_opt_int(row.get("packet_number", "")),
            dgram_id=i,
            gso_id=_opt_int(row.get("gso_id", "")),
        )


def load_capture(path: str | Path, strict: bool = False) -> CaptureColumns:
    """Load a capture CSV; rows are sorted by ``time_ns``.

    tshark exports are not guaranteed monotone (reordered frames, merged
    multi-interface captures), and unordered rows would produce negative
    inter-packet gaps downstream, silently corrupting every distribution
    metric. By default out-of-order rows are sorted into timestamp order;
    with ``strict=True`` they raise instead, for pipelines where disorder
    indicates a broken export.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or "time_ns" not in reader.fieldnames:
            raise ConfigError(f"{path}: expected a header row including 'time_ns'")
        cols = CaptureColumns.from_records(_rows(reader, path, strict))
    return cols.select(sorted(range(len(cols)), key=cols.time_ns.__getitem__))
