"""Run one workload in fresh worker processes and merge what they report.

This side never imports the program under test: it starts workers, reads
their JSON, and does the statistics. One *run* of a workload is
``PROCESSES`` workers one after the other, each paying set-up once and then
timing passes for its share of the run's seconds, so that ``setup_s`` and
``peak_rss_mib`` are medians over processes and ``wall_s`` is a median over
every pass of every process.

The end-to-end times are in reference seconds (see :mod:`.reference`): each
pass's host seconds are scaled by how fast the reference kernel ran right
before and right after it. The host seconds stay in the report next to them.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from . import reference
from .layers import EXACT, Ledger

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]
#: Scratch for worker processes; inside the benchmark's own directory because
#: a run may write nowhere else in its checkout. Ignored by git.
WORK_ROOT = BENCH_DIR / ".work"
#: Worker processes per run (one set-up measurement each).
PROCESSES = 3
#: Multiplies every workload size. 1 is the size each workload was designed
#: at (16 MiB flows, 800 flows, 192 repetitions); 0.25 is what fits the
#: driver's budget of 136 runs in 3420 s.
DEFAULT_SCALE = 0.25


@functools.lru_cache(maxsize=None)
def contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: the names, units and bounds everything here uses."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def host_facts() -> Dict[str, Any]:
    return {"nproc": os.cpu_count(), "load_avg": list(os.getloadavg())}


def warn_if_loaded(host: Dict[str, Any]) -> None:
    if host["load_avg"][0] > 0.5 * host["nproc"]:
        print(
            f"warning: 1-minute load average {host['load_avg'][0]:.2f} exceeds half of "
            f"{host['nproc']} cores; this host's timings drift ~25 % under load",
            file=sys.stderr,
        )


def summary(values: Sequence[float], unit: str) -> Dict[str, Any]:
    """Median, quartiles, minimum and count: the shape of every timed metric."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "value": statistics.median(values),
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "n": len(values),
    }


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = DEFAULT_SCALE,
    passes: int = 0,
    src: Optional[Path] = None,
    processes: int = PROCESSES,
    raw_file: Optional[Path] = None,
) -> Dict[str, Any]:
    """One run of ``workload``. ``passes`` > 0 fixes the passes per process
    instead of timing for ``seconds``. Raises ``RuntimeError`` if a worker
    does not finish."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    children: List[Dict[str, Any]] = []
    try:
        for index in range(processes):
            result_file = work_dir / f"worker-{index}.json"
            command = [
                sys.executable, str(BENCH_DIR / "__main__.py"), "worker",
                "--workload", workload,
                "--seed", str(seed),
                "--scale", repr(scale),
                "--seconds", repr(seconds / processes),
                "--passes", str(passes),
                "--trace", str(int(trace)),
                "--src", str(src or REPO_ROOT / "src"),
                "--work-dir", str(work_dir),
                "--result", str(result_file),
                "--spawned-at", repr(time.monotonic()),
            ]
            if raw_file is not None and index == 0:
                command += ["--raw-file", str(raw_file)]
            # The worker's chatter must not end up after our last stdout line.
            done = subprocess.run(command, env=env, stdout=sys.stderr, timeout=150 + seconds)
            if done.returncode != 0 or not result_file.exists():
                raise RuntimeError(f"worker for {workload} exited with code {done.returncode}")
            children.append(json.loads(result_file.read_text()))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    return _merge(workload, seed, seconds, scale, trace, children)


def _merge(
    workload: str, seed: int, seconds: float, scale: float, trace: bool, children: List[Dict[str, Any]]
) -> Dict[str, Any]:
    untraced = [p for child in children for p in child["untraced"]]
    traced = [p for child in children for p in child.get("traced", ())]
    counted = untraced + traced
    attempted = sum(p["attempted"] for p in counted)
    failed = sum(p["failed"] for p in counted)
    notes = sorted({note for p in counted for note in p["notes"]})
    digests = {p["digest"] for p in counted}
    if len(digests) > 1:
        notes.append(f"{len(digests)} different sim digests among passes with equal inputs")
    first = untraced[0]
    report: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "mode": children[0]["mode"],
        "python": children[0]["python"],
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "sim_digest": first["digest"],
        "events": first["events"],
        "wire_pkts": first["wire_pkts"],
        "processes": len(children),
        "passes": len(untraced),
        # Every pass made, in order and in host seconds, with the reference
        # kernel's time before and after it, so that a reader can redo the
        # statistics.
        "walls_s": [[p["wall_ns"] / 1e9 for p in child["untraced"]] for child in children],
        "refs_s": [[[p["ref_before_s"], p["ref_after_s"]] for p in child["untraced"]] for child in children],
        "setups_s": [child["setup_s"] for child in children],
        "setup_refs_s": [child["setup_refs_s"] for child in children],
    }
    walls = [p["wall_ns"] / 1e9 for p in untraced]
    speeds = [speed for child in children for speed in _host_speeds(child, "untraced")]
    report["host_wall_s"] = statistics.median(walls)
    report["host_speed"] = statistics.median(speeds)
    if trace:
        ledger = Ledger(traced)
        traced_speeds = [speed for child in children for speed in _host_speeds(child, "traced")]
        values = ledger.metrics(
            {
                "wall_s": statistics.median(walls),
                "traced_x": statistics.median(p["wall_ns"] / 1e9 * s for p, s in zip(traced, traced_speeds))
                / statistics.median(wall * speed for wall, speed in zip(walls, speeds)),
                "sim_wall_s": statistics.fmean(p["sim_wall_s"] for p in untraced),
                "cpu_s": statistics.fmean(p["cpu_s"] for p in untraced),
                "disk_bytes": statistics.fmean(p["disk_bytes"] for p in untraced),
            }
        )
        counts = {
            json.dumps([p["counters"], {n: s[0] for n, s in p["spans"].items()}], sort_keys=True)
            for p in traced
        }
        if len(counts) > 1:
            notes.append("exact counts differ between traced passes with equal inputs")
        units = {m["name"]: m["unit"] for m in contract()["per_layer"]}
        report["metrics"] = {
            name: {"value": value, "unit": units[name], "exact": name in EXACT}
            for name, value in values.items()
        }
        report["traced_passes"] = len(traced)
        report["spans"] = ledger.spans
        report["untraced_entry_points"] = sorted({m for c in children for m in c.get("missing", ())})
    else:
        ref_walls = [wall * speed for wall, speed in zip(walls, speeds)]
        report["metrics"] = {
            "wall_s": summary(ref_walls, "s"),
            "wire_pkts_per_s": summary([p["wire_pkts"] / wall for p, wall in zip(untraced, ref_walls)], "1/s"),
            "peak_rss_mib": summary([c["peak_rss_mib"] for c in children], "MiB"),
            "setup_s": summary(
                [c["setup_s"] * 2 * reference.NOMINAL_S / sum(c["setup_refs_s"]) for c in children], "s"
            ),
        }
    report["notes"] = notes
    report["correct"] = failed == 0 and not notes
    return report


def _host_speeds(child: Dict[str, Any], kind: str) -> List[float]:
    """Host speed during each ``kind`` ("untraced", "traced") pass of one
    worker: 1 = the reference kernel ran in its nominal time, 0.5 = it took
    twice as long."""
    refs = [(p["ref_before_s"], p["ref_after_s"]) for p in child[kind]]
    if child["cores"] > 1:
        # The kernel samples one core while the other idles, and the pass then
        # loads both: a sample next to the pass says little about that pass
        # (it made campaign_cold noisier), the process's median still tracks
        # the slow drift.
        typical = statistics.median([refs[0][0]] + [after for _, after in refs])
        return [reference.NOMINAL_S / typical] * len(refs)
    return [2 * reference.NOMINAL_S / (before + after) for before, after in refs]


def contract_line(report: Dict[str, Any]) -> str:
    """The one JSON object the driver reads from the last line of stdout."""
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                name: {"value": m["value"], "unit": m["unit"]} for name, m in report["metrics"].items()
            },
        }
    )
