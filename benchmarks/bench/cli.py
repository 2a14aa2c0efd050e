"""Command line of the benchmark (see ``README.md`` for the one-liners)."""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import compare as comparing
from .measure import DEFAULT_SCALE, contract, contract_line, host_facts, measure, warn_if_loaded


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.bench", description=__doc__)
    names = [w["name"] for w in contract()["workloads"]]
    run_seconds = contract()["run_seconds"]
    commands = parser.add_subparsers(dest="command", required=True)

    def sizing(p: argparse.ArgumentParser, seconds: float) -> None:
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--seconds", type=float, default=seconds, help="measured seconds per workload")
        p.add_argument("--scale", type=float, default=DEFAULT_SCALE, help="multiplies every workload size")

    for name, text in (
        ("run", "all workloads untraced: the end-to-end metrics"),
        ("trace", "all workloads with the span wrappers: the per-layer ledger"),
    ):
        p = commands.add_parser(name, help=text)
        sizing(p, run_seconds)
        p.add_argument("--passes", type=int, default=0, help="passes per process instead of --seconds")
        p.add_argument("--workload", action="append", choices=names, help="default: all six")
        p.add_argument("--out-dir", type=Path, help="where the JSON goes (default: a new temp dir)")

    p = commands.add_parser("measure", help="one workload, one JSON line (the BENCHMARK.json command)")
    sizing(p, run_seconds)
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)

    p = commands.add_parser("compare", help="verdict per (metric, workload) of output B against base A")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)

    p = commands.add_parser("ab", help="interleaved pairs of a git ref's src against this tree's")
    sizing(p, 4.0)
    p.add_argument("--ref", required=True)
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--pairs", type=int, default=10)

    p = commands.add_parser("worker", help=argparse.SUPPRESS)
    sizing(p, 0.0)
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--passes", type=int, default=0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--src", required=True)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--raw-file")
    p.add_argument("--spawned-at", type=float, required=True)

    args = parser.parse_args(argv)
    if args.command == "worker":
        from .worker import run

        return run(args)
    if args.command == "compare":
        lines, code = comparing.compare(json.loads(args.a.read_text()), json.loads(args.b.read_text()))
        print("\n".join(lines))
        return code
    host = host_facts()
    warn_if_loaded(host)
    try:
        if args.command == "ab":
            lines, code = comparing.ab(args.ref, args.workload, args.pairs, args.seconds, args.seed, args.scale)
            print("\n".join(lines))
            return code
        if args.command == "measure":
            report = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
            for note in report["notes"]:
                print(f"{args.workload}: {note}", file=sys.stderr)
            print(contract_line(report))
            return 0
        return _run_all(args, host)
    except RuntimeError as exc:  # a worker that did not finish: no result to print
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run_all(args: argparse.Namespace, host: Dict[str, Any]) -> int:
    trace = args.command == "trace"
    out_dir = args.out_dir or Path(tempfile.mkdtemp(prefix=f"bench-{args.command}-"))
    out_dir.mkdir(parents=True, exist_ok=True)
    output: Dict[str, Any] = {
        "kind": args.command,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "host": host,
        "workloads": {},
    }
    why = {w["name"]: w["why"] for w in contract()["workloads"]}
    for name in args.workload or why:
        # Raw spans of the first process of every workload, one file each.
        raw_file = out_dir / f"trace.{name}.json" if trace else None
        report = measure(name, args.seed, args.seconds, trace, args.scale, args.passes, raw_file=raw_file)
        output["workloads"][name] = report
        print(f"\n{name} — {why[name]}")
        print(
            f"  {report['passes']} passes in {report['processes']} processes, "
            f"{report['wire_pkts']} wire packets and {report['events']} events per pass, "
            f"failed_share {report['failed_share']:.4f} ({report['failed']}/{report['attempted']}), "
            f"sim_digest {report['sim_digest'][:16]}, "
            f"host speed {report['host_speed']:.2f} ({report['host_wall_s']:.4g} host s per pass)"
        )
        for metric, m in report["metrics"].items():
            detail = f"  quartiles {m['q1']:.6g}-{m['q3']:.6g}, min {m['min']:.6g}, n={m['n']}" if "q1" in m else ""
            print(f"  {metric:<34}{m['value']:>14.6g} {m['unit']:<6}{detail}")
        for note in report["notes"]:
            print(f"  FAILED CHECK: {note}")
        for entry in report.get("untraced_entry_points", ()):
            print(f"  not in this tree, so not traced: {entry}")
    host["load_avg_end"] = host_facts()["load_avg"]
    first = next(iter(output["workloads"].values()))
    host.update(mode=first["mode"], python=first["python"])
    if trace:
        spans = {name: report.pop("spans") for name, report in output["workloads"].items()}
        raw = {name: json.loads((out_dir / f"trace.{name}.json").read_text()) for name in spans}
        for name in spans:
            (out_dir / f"trace.{name}.json").unlink()
        (out_dir / "trace.json").write_text(
            json.dumps({"fields": ["id", "name", "start_ns", "end_ns", "parent", "pass"], "spans": raw})
        )
        output["spans"] = spans
    target = out_dir / ("layers.json" if trace else "run.json")
    target.write_text(json.dumps(output, indent=1))
    print(f"\nhost: {json.dumps(host)}")
    print(f"wrote {target}" + (f" and {out_dir / 'trace.json'}" if trace else ""))
    correct = all(report["correct"] for report in output["workloads"].values())
    return 0 if correct else 1
