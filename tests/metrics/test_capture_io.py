"""Capture CSV import/export."""

import pytest

from repro.errors import ConfigError
from repro.metrics.capture_io import load_capture, save_capture
from repro.metrics.gaps import inter_packet_gaps
from repro.net.tap import CaptureColumns, CaptureRecord


def rec(t, pn=None):
    return CaptureRecord(
        time_ns=t, wire_size=1294, payload_size=1252,
        flow=("10.0.0.1", 443, "10.0.0.2", 40000),
        packet_number=pn, dgram_id=0, gso_id=None,
    )


def test_roundtrip(tmp_path):
    records = CaptureColumns.from_records([rec(100, 0), rec(350, 1), rec(900, None)])
    path = save_capture(records, tmp_path / "cap.csv")
    loaded = load_capture(path)
    assert [r.time_ns for r in loaded] == [100, 350, 900]
    assert [r.packet_number for r in loaded] == [0, 1, None]
    assert loaded[0].flow == ("10.0.0.1", 443, "10.0.0.2", 40000)
    assert inter_packet_gaps(loaded) == inter_packet_gaps(records)


def test_minimal_columns(tmp_path):
    path = tmp_path / "min.csv"
    path.write_text("time_ns,wire_size\n1000,1294\n2000,1294\n")
    loaded = load_capture(path)
    assert len(loaded) == 2
    assert loaded[0].payload_size == 1294 - 42
    assert loaded[0].packet_number is None


def test_records_sorted_by_time(tmp_path):
    path = tmp_path / "unsorted.csv"
    path.write_text("time_ns,wire_size\n5000,100\n1000,100\n3000,100\n")
    loaded = load_capture(path)
    assert [r.time_ns for r in loaded] == [1000, 3000, 5000]
    # The point of sorting: downstream gaps stay non-negative.
    assert all(g >= 0 for g in inter_packet_gaps(loaded))


def test_strict_rejects_unordered_rows(tmp_path):
    path = tmp_path / "unsorted.csv"
    path.write_text("time_ns,wire_size\n5000,100\n1000,100\n")
    with pytest.raises(ConfigError, match="row 3 is out of order"):
        load_capture(path, strict=True)


def test_strict_accepts_ordered_rows(tmp_path):
    path = tmp_path / "sorted.csv"
    path.write_text("time_ns,wire_size\n1000,100\n1000,100\n5000,100\n")
    loaded = load_capture(path, strict=True)
    assert [r.time_ns for r in loaded] == [1000, 1000, 5000]


def test_float_times_accepted(tmp_path):
    # tshark exports epoch seconds; pre-scaled floats must parse.
    path = tmp_path / "float.csv"
    path.write_text("time_ns,wire_size\n1000.0,100\n2000.7,100\n")
    loaded = load_capture(path)
    assert loaded[1].time_ns == 2000


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ConfigError):
        load_capture(path)


def test_bad_row_reports_line(tmp_path):
    path = tmp_path / "bad2.csv"
    path.write_text("time_ns,wire_size\nnot_a_number,100\n")
    with pytest.raises(ConfigError, match="row 2"):
        load_capture(path)


def test_experiment_capture_roundtrips(tmp_path):
    from repro.framework.config import ExperimentConfig
    from repro.framework.experiment import Experiment
    from repro.metrics.trains import packets_by_train_length
    from repro.units import kib

    result = Experiment(
        ExperimentConfig(stack="quiche", file_size=kib(200), repetitions=1), seed=5
    ).run()
    path = save_capture(result.server_records, tmp_path / "exp.csv")
    loaded = load_capture(path)
    assert packets_by_train_length(loaded) == packets_by_train_length(result.server_records)
