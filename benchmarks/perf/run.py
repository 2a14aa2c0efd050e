"""Run the full perf suite and record a ``BENCH_<n>.json``.

Usage::

    python -m benchmarks.perf.run [--out BENCH_13.json] [--repeats 3] [--runs 5]

The output JSON holds the microbenchmark ops/sec, the end-to-end wall-clock
and events/sec at the current ``REPRO_SCALE_MIB``, the many-flow population
wall-clock at the current ``REPRO_FLOWS``, and — when the committed baseline
records a pre-overhaul time for that scale — the speedup over the pre-PR
engine. (Per-repetition framework overhead through the forkserver pool is the
``campaign_cold`` workload of ``benchmarks/bench``.)

The timed repetitions are real, deterministic experiment results, so they
are also streamed into a :class:`~repro.framework.store.ResultStore`
(``--store``, on by default) and can be inspected afterwards with
``repro query`` / ``repro report`` like any campaign's rows.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

from benchmarks.perf.e2e import bench_e2e, scale_mib
from benchmarks.perf.manyflow import bench_manyflow, census_totals, flow_count
from benchmarks.perf.microbench import run_all
from repro.framework.store import ResultStore

BASELINE_PATH = Path(__file__).parent / "baseline.json"

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_13.json", help="output JSON path")
    parser.add_argument(
        "--force", action="store_true",
        help="overwrite an existing --out recorded under a different "
        "schema/python",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="repetitions per microbenchmark"
    )
    parser.add_argument(
        "--runs", type=int, default=5, help="repetitions of the e2e transfer"
    )
    parser.add_argument(
        "--flow-runs", type=int, default=3,
        help="repetitions of the many-flow population run",
    )
    parser.add_argument(
        "--census-flows", type=int, default=200,
        help="flows for the (untimed) event-census run (0 skips the section)",
    )
    parser.add_argument(
        "--store", default="perf-session.sqlite",
        help="stream the benchmark repetitions into this SQLite result store, "
        "queryable with `repro query`/`repro report` ('' disables)",
    )
    args = parser.parse_args(argv)

    out = Path(args.out)
    if out.exists() and not args.force:
        # A BENCH record is a measurement artifact: silently replacing one
        # taken under a different schema or interpreter makes the committed
        # history lie. Same-environment re-runs stay cheap.
        try:
            prior = json.loads(out.read_text())
        except (OSError, ValueError):
            prior = None
        if isinstance(prior, dict):
            mismatches = [
                f"{key}: {prior.get(key)!r} -> {new!r}"
                for key, new in (
                    ("schema", 1),
                    ("python", platform.python_version()),
                )
                if prior.get(key) != new
            ]
            if mismatches:
                print(
                    f"perf: refusing to overwrite {out} recorded under a "
                    "different environment (" + "; ".join(mismatches) + "); "
                    "pass --force to replace it",
                    file=sys.stderr,
                )
                return 1
    store = ResultStore(args.store) if args.store else None

    print(f"perf: microbenchmarks (best of {args.repeats}) ...")
    micro = run_all(repeats=args.repeats)
    for name, rec in micro.items():
        print(f"  {name:24s} {rec['ops_per_sec']:>14,.0f} ops/s")

    scale = scale_mib()
    print(f"perf: end-to-end transfer at {scale:g} MiB (best of {args.runs}) ...")
    e2e = bench_e2e(runs=args.runs, store=store)
    print(
        f"  wall {e2e['wall_s']:.3f}s  "
        f"{e2e['events_per_sec']:,.0f} events/s  "
        f"{e2e['packets_on_wire']} packets"
    )

    flows = flow_count()
    print(f"perf: many-flow population at {flows} flows (best of {args.flow_runs}) ...")
    manyflow = bench_manyflow(runs=args.flow_runs, store=store)
    print(
        f"  wall {manyflow['wall_s']:.3f}s  "
        f"{manyflow['events_per_sec']:,.0f} events/s  "
        f"{manyflow['completed_flows']}/{flows} flows completed"
    )

    print(f"perf: many-flow churn variant at {flows} flows (best of {args.flow_runs}) ...")
    manyflow_churn = bench_manyflow(
        runs=args.flow_runs, store=store, name="bench/manyflow-churn", churn=True
    )
    print(
        f"  wall {manyflow_churn['wall_s']:.3f}s  "
        f"{manyflow_churn['events_per_sec']:,.0f} events/s  "
        f"{manyflow_churn['drained']} drained stragglers"
    )

    if args.census_flows > 0:
        print(f"perf: event census at {args.census_flows} flows ...")
        census = census_totals(args.census_flows, churn=True)
        print(
            f"  {census['scheduled']} scheduled, {census['fired']} fired, "
            f"{census['stale']} stale, {census['post_departure']} post-departure"
        )

    payload = {
        "schema": 1,
        "python": platform.python_version(),
        "micro": micro,
        "e2e": e2e,
        "manyflow": manyflow,
        "manyflow_churn": manyflow_churn,
    }
    if args.census_flows > 0:
        payload["census"] = {"flows": args.census_flows, "churn": True, **census}

    if store is not None:
        payload["store"] = {
            "path": args.store,
            "reps": store.rep_count(),
            "fingerprint": store.content_fingerprint(),
        }
        print(f"perf: recorded {store.rep_count()} rep(s) into {args.store}")
        store.close()

    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        pre = baseline.get("pre_pr", {})
        if pre.get("scale_mib") == e2e["scale_mib"]:
            speedup = pre["wall_s"] / e2e["wall_s"]
            payload["e2e"]["pre_pr_wall_s"] = pre["wall_s"]
            payload["e2e"]["speedup_vs_pre_pr"] = round(speedup, 2)
            print(
                f"  speedup vs pre-PR engine ({pre['wall_s']:.3f}s): "
                f"{speedup:.2f}x"
            )
        pre_many = baseline.get("pre_pr_manyflow", {}).get(str(flows))
        if pre_many:
            speedup = pre_many["wall_s"] / manyflow["wall_s"]
            payload["manyflow"]["pre_pr_wall_s"] = pre_many["wall_s"]
            payload["manyflow"]["speedup_vs_pre_pr"] = round(speedup, 2)
            print(
                f"  manyflow@{flows} speedup vs pre-PR engine "
                f"({pre_many['wall_s']:.3f}s): {speedup:.2f}x"
            )
        pre_rearm = baseline.get("pre_pr_timer_rearm")
        rearm = micro.get("timer_rearm")
        if pre_rearm and rearm:
            speedup = rearm["ops_per_sec"] / pre_rearm["ops_per_sec"]
            payload["micro"]["timer_rearm"]["pre_pr_ops_per_sec"] = (
                pre_rearm["ops_per_sec"]
            )
            payload["micro"]["timer_rearm"]["speedup_vs_pre_pr"] = round(
                speedup, 2
            )
            print(
                f"  timer_rearm speedup vs pre-PR cancel+reschedule "
                f"({pre_rearm['ops_per_sec']:,.0f} ops/s): "
                f"{speedup:.2f}x"
            )

    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"perf: wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
