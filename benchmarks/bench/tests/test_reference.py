"""Reference seconds: host seconds scaled by the kernel's time next to them."""

from __future__ import annotations

import pytest

from benchmarks.bench import reference
from benchmarks.bench.measure import _merge

N = reference.NOMINAL_S


def _pass(wall_s: float, before: float, after: float) -> dict:
    return {
        "wall_ns": int(wall_s * 1e9), "cpu_s": wall_s, "ref_before_s": before, "ref_after_s": after,
        "attempted": 1, "failed": 0, "wire_pkts": 1000, "events": 10_000, "reps": 1,
        "digest": "d", "sim_wall_s": wall_s, "disk_bytes": 0, "notes": [],
    }


def _child(passes: list, cores: int = 1) -> dict:
    return {
        "mode": "pure", "python": "3", "cores": cores, "peak_rss_mib": 30.0,
        "setup_s": 1.0, "setup_refs_s": [2 * N, 2 * N], "untraced": passes,
    }


def test_kernel_runs_and_checks_its_own_work():
    assert 0 < reference.run() < 5


def test_a_host_at_half_speed_reads_the_same_reference_seconds():
    quiet = _merge("w", 1, 1.0, 0.25, False, [_child([_pass(1.0, N, N)] * 3)])
    slow = _merge("w", 1, 1.0, 0.25, False, [_child([_pass(2.0, 2 * N, 2 * N)] * 3)])
    for report in (quiet, slow):
        assert report["metrics"]["wall_s"]["value"] == pytest.approx(1.0)
        assert report["metrics"]["wire_pkts_per_s"]["value"] == pytest.approx(1000.0)
    assert quiet["host_speed"] == pytest.approx(1.0) and slow["host_speed"] == pytest.approx(0.5)
    assert slow["host_wall_s"] == pytest.approx(2.0)
    assert slow["metrics"]["setup_s"]["value"] == pytest.approx(0.5)
    assert slow["walls_s"] == [[2.0, 2.0, 2.0]]


def test_each_pass_is_scaled_by_the_kernel_runs_next_to_it():
    passes = [_pass(1.0, N, N), _pass(3.0, N, 5 * N), _pass(5.0, 5 * N, 5 * N)]
    report = _merge("w", 1, 1.0, 0.25, False, [_child(passes)])
    assert report["metrics"]["wall_s"]["value"] == pytest.approx(1.0)
    assert report["metrics"]["wall_s"]["q3"] == pytest.approx(1.0)


def test_a_pass_on_two_cores_takes_the_median_speed_of_its_process():
    passes = [_pass(2.0, 2 * N, 2 * N), _pass(2.0, 2 * N, 8 * N), _pass(2.0, 8 * N, 2 * N)]
    report = _merge("w", 1, 1.0, 0.25, False, [_child(passes, cores=2)])
    walls = report["metrics"]["wall_s"]
    assert walls["value"] == walls["q1"] == walls["q3"] == pytest.approx(1.0)
