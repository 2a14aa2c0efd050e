"""The commands end to end, at a twentieth of the default sizes."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.bench.compare import compare
from benchmarks.bench.measure import BENCH_DIR, REPO_ROOT, WORK_ROOT, contract

CONTRACT = contract()


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "__main__.py"), *args],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )


def test_run_reports_exactly_the_contract_names(tmp_path: Path):
    started = time.monotonic()
    done = bench("run", "--scale", "0.05", "--passes", "1", "--out-dir", str(tmp_path))
    assert done.returncode == 0, done.stdout + done.stderr
    assert time.monotonic() - started < 30
    output = json.loads((tmp_path / "run.json").read_text())
    assert list(output["workloads"]) == [w["name"] for w in CONTRACT["workloads"]]
    units = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    for report in output["workloads"].values():
        assert report["correct"] and report["failed_share"] == 0.0
        assert {name: m["unit"] for name, m in report["metrics"].items()} == units
        assert all(m["value"] > 0 for m in report["metrics"].values())
    assert {"nproc", "python", "mode", "load_avg", "load_avg_end"} <= set(output["host"])
    assert not WORK_ROOT.exists()

    lines, code = compare(output, output)
    assert code == 0 and lines[-1] == "no regression beyond the bounds"
    worse = json.loads(json.dumps(output))
    worse["workloads"]["bulk_tcp"]["metrics"]["wall_s"]["value"] *= 1.5
    lines, code = compare(output, worse)
    assert code == 1 and any("wall_s" in line and "regressed" in line for line in lines)


def test_trace_writes_the_ledger_and_shares_add_up(tmp_path: Path):
    done = bench(
        "trace", "--scale", "0.05", "--passes", "1", "--out-dir", str(tmp_path),
        "--workload", "quic_offpath", "--workload", "campaign_warm",
    )
    assert done.returncode == 0, done.stdout + done.stderr
    output = json.loads((tmp_path / "layers.json").read_text())
    units = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    for name, report in output["workloads"].items():
        metrics = report["metrics"]
        assert {n: m["unit"] for n, m in metrics.items()} == units
        shares = sum(m["value"] for n, m in metrics.items() if n.endswith(".self_share"))
        assert abs(shares + metrics["trace.unattributed_share"]["value"] - 1.0) < 0.02
        assert report["untraced_entry_points"] == []
        assert output["spans"][name]
    offpath = output["workloads"]["quic_offpath"]["metrics"]
    assert offpath["kernel.gso_buffers"]["value"] > 0
    assert offpath["net.injected_drops"]["value"] > 0
    assert offpath["tcp.segments"]["value"] == 0
    warm = output["workloads"]["campaign_warm"]["metrics"]
    assert warm["sim.events"]["value"] == 0 and warm["framework.cache_get_ms_per_rep"]["value"] > 0
    raw = json.loads((tmp_path / "trace.json").read_text())
    assert raw["fields"] == ["id", "name", "start_ns", "end_ns", "parent", "pass"]
    assert 0 < len(raw["spans"]["quic_offpath"]) <= 20_000


def test_measure_prints_the_contract_line_last():
    done = bench("measure", "--workload", "bulk_tcp", "--seed", "7", "--seconds", "1", "--scale", "0.05", "--trace", "0")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 3 and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
