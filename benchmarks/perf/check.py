"""Regression gate: compare a BENCH record against the committed baseline.

Usage::

    python -m benchmarks.perf.check BENCH_5.json [--baseline baseline.json]
        [--tolerance 0.30]

Fails (exit 1) when any microbenchmark's ops/sec drops more than
``tolerance`` below the baseline, or the end-to-end wall-clock at a matching
scale — or the many-flow population wall-clock at a matching flow count —
exceeds the baseline by more than ``tolerance``. The default 30 %
margin absorbs host-to-host variation on CI runners; a real hot-path
regression (a reintroduced per-event allocation, an accidental O(n log n)
re-sort) moves these numbers far more than that.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).parent / "baseline.json"


def compare(result: dict, baseline: dict, tolerance: float) -> list[str]:
    failures: list[str] = []
    base_micro = baseline.get("micro", {})
    for name, rec in result.get("micro", {}).items():
        base = base_micro.get(name)
        if base is None:
            continue
        floor = base["ops_per_sec"] * (1.0 - tolerance)
        if rec["ops_per_sec"] < floor:
            failures.append(
                f"micro/{name}: {rec['ops_per_sec']:,.0f} ops/s is more than "
                f"{tolerance:.0%} below baseline {base['ops_per_sec']:,.0f}"
            )
    e2e = result.get("e2e")
    base_e2e = baseline.get("e2e", {})
    entry = base_e2e.get(str(e2e["scale_mib"])) if e2e else None
    if e2e and entry:
        ceiling = entry["wall_s"] * (1.0 + tolerance)
        if e2e["wall_s"] > ceiling:
            failures.append(
                f"e2e@{e2e['scale_mib']:g}MiB: {e2e['wall_s']:.3f}s is more "
                f"than {tolerance:.0%} above baseline {entry['wall_s']:.3f}s"
            )
    manyflow = result.get("manyflow")
    base_manyflow = baseline.get("manyflow", {})
    entry = base_manyflow.get(str(manyflow["flows"])) if manyflow else None
    if manyflow and entry:
        ceiling = entry["wall_s"] * (1.0 + tolerance)
        if manyflow["wall_s"] > ceiling:
            failures.append(
                f"manyflow@{manyflow['flows']}flows: {manyflow['wall_s']:.3f}s is "
                f"more than {tolerance:.0%} above baseline {entry['wall_s']:.3f}s"
            )
    churn = result.get("manyflow_churn")
    base_churn = baseline.get("manyflow_churn", {})
    entry = base_churn.get(str(churn["flows"])) if churn else None
    if churn and entry:
        ceiling = entry["wall_s"] * (1.0 + tolerance)
        if churn["wall_s"] > ceiling:
            failures.append(
                f"manyflow_churn@{churn['flows']}flows: {churn['wall_s']:.3f}s "
                f"is more than {tolerance:.0%} above baseline {entry['wall_s']:.3f}s"
            )
        # Determinism, not performance: the churn workload is a pure function
        # of (config, seed), so the fingerprint must match the baseline
        # byte-for-byte.
        if entry.get("fingerprint") and churn["fingerprint"] != entry["fingerprint"]:
            failures.append(
                f"manyflow_churn@{churn['flows']}flows: fingerprint "
                f"{churn['fingerprint'][:16]}… does not match baseline "
                f"{entry['fingerprint'][:16]}… (churn teardown broke determinism)"
            )
    census = result.get("census")
    if census and census.get("post_departure", 0) > 0:
        # The churn invariant: a departed flow schedules nothing, ever.
        failures.append(
            f"census: {census['post_departure']} event(s) scheduled by "
            "departed flows (teardown left a live timer)"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("result", help="BENCH_<n>.json produced by run.py")
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE))
    parser.add_argument("--tolerance", type=float, default=0.30)
    args = parser.parse_args(argv)

    result = json.loads(Path(args.result).read_text())
    baseline = json.loads(Path(args.baseline).read_text())
    failures = compare(result, baseline, args.tolerance)
    if failures:
        for f in failures:
            print(f"PERF REGRESSION: {f}")
        return 1
    print(f"perf check: OK (within {args.tolerance:.0%} of baseline)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
