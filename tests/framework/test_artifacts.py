"""JSON artifact serialization."""

import json

from repro.framework.artifacts import result_to_dict, save_summary, summary_to_dict
from repro.framework.config import ExperimentConfig
from repro.framework.runner import run_repetitions
from repro.units import kib

CFG = ExperimentConfig(stack="quiche", file_size=kib(200), repetitions=2)


def _summary():
    return run_repetitions(CFG)


def test_result_dict_fields():
    summary = _summary()
    d = result_to_dict(summary.results[0])
    assert d["completed"]
    assert d["config"]["stack"] == "quiche"
    assert d["goodput_mbps"] > 0
    assert 0 <= d["metrics"]["back_to_back_share"] <= 1
    assert sum(d["metrics"]["packets_by_train_length"].values()) == d["packets_on_wire"]
    assert "capture" not in d


def test_capture_included_on_request():
    summary = _summary()
    d = result_to_dict(summary.results[0], include_capture=True)
    assert len(d["capture"]) == d["packets_on_wire"]
    assert {"t_ns", "pn", "size"} <= set(d["capture"][0])


def test_summary_roundtrips_through_json(tmp_path):
    summary = _summary()
    path = save_summary(summary, tmp_path / "out" / "run.json")
    assert path.exists()
    loaded = json.loads(path.read_text())
    assert loaded == summary_to_dict(summary)
    assert loaded["label"] == "quiche/cubic"
    assert len(loaded["repetitions"]) == 2
    # Valid JSON end to end.
    json.dumps(loaded)
