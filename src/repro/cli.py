"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``      — run one configuration and print the paper metrics;
* ``sweep``    — run one claims table's grid in parallel with result caching
  and end with the table's verdicts (``paper``, ``extensions``,
  ``impairments``, ``duels``, ``population``: the keys of
  :data:`repro.framework.claims.TABLES`);
* ``population`` — run a generated flow population (hundreds of concurrent
  flows, or a few named ``--profiles``, over one bottleneck) and report
  per-flow distributions + fairness; exits 1 if a flow does not complete;
* ``analyze``  — run the paper's evaluation pipeline on a capture CSV
  (including captures exported with ``run --capture`` or converted from the
  paper's published pcaps);
* ``query``    — filter/aggregate repetitions in a result store (``--store``);
* ``report``   — render EXPERIMENTS.md-style summary tables from a store;
* ``store``    — inspect, migrate into, merge shard parts into, and export from
  a result store;
* ``scenarios``— list every table's grid: the configurations its claims name.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import replace
from typing import Dict, List, Optional

from repro.cc.factory import CCA_NAMES
from repro.errors import ConfigError
from repro.framework.cache import ResultCache
from repro.framework.claims import TABLES, grid_rows, render
from repro.framework.config import ExperimentConfig, GSO_MODES, QDISCS, STACKS
from repro.framework.executors import BACKENDS
from repro.framework.store import FILTER_COLUMNS, METRIC_COLUMNS, ResultStore, grid_key
from repro.framework.runner import RunSummary
from repro.framework.scenarios import POPULATION_PROFILES, SF_PATCH
from repro.framework.supervision import SupervisionPolicy
from repro.framework.sweep import SweepRunner
from repro.metrics.gaps import Distribution, fraction_leq, inter_packet_gaps, pooled_gaps
from repro.metrics.report import render_histogram, render_markdown_table, render_table
from repro.metrics.trains import (
    fraction_of_packets_in_trains_leq,
    packets_by_train_length,
    pooled_fraction_of_packets_in_trains_leq,
    pooled_packets_by_train_length,
)
from repro.units import fmt_time, us


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cca", default="cubic", choices=CCA_NAMES)
    parser.add_argument("--qdisc", default="none", choices=QDISCS)
    parser.add_argument("--gso", default="off", choices=GSO_MODES)
    parser.add_argument("--size-mib", type=float, default=4.0, help="file size in MiB")
    parser.add_argument("--seed", type=int, default=1)


def _add_impairments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "impairments", "seeded fault injection on the data path (composable, in order)"
    )
    group.add_argument(
        "--loss", type=float, metavar="RATE",
        help="i.i.d. packet loss probability, e.g. 0.01",
    )
    group.add_argument(
        "--burst-loss", metavar="[P_ENTER[,P_EXIT[,LOSS_BAD]]]",
        nargs="?", const="", default=None,
        help="Gilbert-Elliott burst loss; bare flag uses the dribble defaults "
        "(0.003,0.3,1.0) that trigger quiche's rollback pathology",
    )
    group.add_argument(
        "--reorder", metavar="RATE[,EXTRA_MS]", nargs="?", const="", default=None,
        help="reordering: hold back RATE of packets by EXTRA_MS (default 0.01,4)",
    )
    group.add_argument(
        "--duplicate", type=float, metavar="RATE",
        help="packet duplication probability",
    )
    group.add_argument(
        "--rate-flap", metavar="PERIOD_MS[,LOW_MBIT[,DUTY]]", nargs="?", const="",
        default=None,
        help="oscillate the bottleneck rate: nominal for DUTY of each PERIOD_MS, "
        "LOW_MBIT for the rest (default 1000,10,0.5)",
    )


def _floats(raw: str, defaults: tuple) -> tuple:
    """Parse ``a[,b[,c]]`` against positional defaults (empty string = all)."""
    values = list(defaults)
    if raw:
        for i, part in enumerate(raw.split(",")):
            if i >= len(values):
                raise SystemExit(f"too many values in {raw!r} (max {len(values)})")
            values[i] = float(part)
    return tuple(values)


def _impairments_from(args: argparse.Namespace) -> tuple:
    from repro.net.impairments import (
        burst_loss, duplication, iid_loss, rate_flap, reordering,
    )
    from repro.units import mbit, ms

    specs = []
    if args.loss is not None:
        specs.append(iid_loss(args.loss))
    if args.burst_loss is not None:
        p_enter, p_exit, loss_bad = _floats(args.burst_loss, (0.003, 0.3, 1.0))
        specs.append(burst_loss(p_enter=p_enter, p_exit=p_exit, loss_bad=loss_bad))
    if args.reorder is not None:
        rate, extra_ms = _floats(args.reorder, (0.01, 4.0))
        specs.append(reordering(rate=rate, extra_delay_ns=int(ms(1) * extra_ms)))
    if args.duplicate is not None:
        specs.append(duplication(args.duplicate))
    if args.rate_flap is not None:
        period_ms, low_mbit, duty = _floats(args.rate_flap, (1000.0, 10.0, 0.5))
        specs.append(
            rate_flap(
                low_rate_bps=int(mbit(1) * low_mbit),
                period_ns=int(ms(1) * period_ms),
                duty=duty,
            )
        )
    return tuple(specs)


def _add_exec(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=None,
        help="process-pool size (default: all cores; 1 runs serially in-process "
        "unless --timeout is set, which always needs a worker process)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="result cache location (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="touch no cache: recompute everything --store does not already hold",
    )
    parser.add_argument(
        "--timeout", type=float, metavar="SECONDS", default=None,
        help="per-repetition wall-clock budget; a hung repetition is killed and "
        "retried (enforced under every backend except inprocess, whatever "
        "--workers and --reps are)",
    )
    parser.add_argument(
        "--retries", type=int, metavar="N", default=2,
        help="re-attempts per repetition after its worker died or it timed out, "
        "at once and with the same derived seed; a repetition that raises is "
        "not retried (default: 2)",
    )
    parser.add_argument(
        "--resume", action=argparse.BooleanOptionalAction, default=True,
        help="carry recorded failures forward (--no-resume runs them again)",
    )
    parser.add_argument(
        "--backend", default=None, choices=BACKENDS,
        help="execution backend: inprocess (serial) or forkserver (supervised "
        "pool of simulator-preloaded workers). Results are bit-identical "
        "across backends (default: forkserver)",
    )
    parser.add_argument(
        "--shard", metavar="I/N", default="0/1",
        help="run part I of a campaign split N ways (one invocation per host, "
        "0 <= I < N): every N-th repetition of the grid, starting at the I-th. "
        "Give each part its own --store and unite them with `repro store merge`",
    )
    parser.add_argument(
        "--store", metavar="PATH", default=None,
        help="stream every settled repetition into this SQLite result store "
        "(queryable afterwards with `repro query` / `repro report`)",
    )


def _make_cache(args: argparse.Namespace) -> Optional[ResultCache]:
    if args.no_cache:
        return None
    return ResultCache(args.cache_dir, stream=sys.stderr)


def _make_store(args: argparse.Namespace) -> Optional[ResultStore]:
    if args.store is None:
        return None
    return ResultStore(args.store, stream=sys.stderr)


def _make_policy(args: argparse.Namespace) -> SupervisionPolicy:
    return SupervisionPolicy(timeout_s=args.timeout, retries=args.retries)


def _journal_dir(cache: Optional[ResultCache]) -> Optional[str]:
    """Where a sweep without ``--store`` keeps its checkpoint store: beside
    the cache. ``--no-cache`` without ``--store`` checkpoints nothing."""
    return str(cache.root / "journals") if cache is not None else None


def _make_runner(args: argparse.Namespace, cache: Optional[ResultCache]) -> SweepRunner:
    """The runner every executing command uses, from the ``_add_exec`` flags."""
    try:
        index, count = map(int, args.shard.split("/"))
    except ValueError:
        raise ConfigError(f"--shard must be I/N (two integers), got {args.shard!r}") from None
    return SweepRunner(
        workers=args.workers,
        cache=cache,
        stream=sys.stderr,
        policy=_make_policy(args),
        journal_dir=_journal_dir(cache),
        resume=args.resume,
        backend=args.backend,
        store=_make_store(args),
        shard=(index, count),
    )


def _run_grid(
    args: argparse.Namespace, cache: Optional[ResultCache], grid: dict
) -> Dict[str, RunSummary]:
    """Run ``grid``; a shard first says which grid it is a part of, so an
    operator can see that every part ran the same one."""
    runner = _make_runner(args, cache)
    index, count = runner.shard
    if count > 1:
        total = sum(config.repetitions for config in grid.values())
        print(
            f"shard {index}/{count} of grid {grid_key(grid)[:12]}: "
            f"{len(range(index, total, count))} of {total} repetitions"
        )
    return runner.run(grid)


def _report_failures(summaries: dict) -> int:
    """Print failed repetitions; the exit code says the table is partial."""
    failed = [f for summary in summaries.values() for f in summary.failures]
    if not failed:
        return 0
    print(f"{len(failed)} repetition(s) FAILED — statistics above are partial:")
    for failure in failed:
        print(f"  {failure.describe()}")
    return 1


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.framework.config import NetworkConfig

    network = replace(NetworkConfig(), forward_impairments=_impairments_from(args))
    config = ExperimentConfig(
        stack=args.stack,
        cca=args.cca,
        qdisc=args.qdisc,
        gso=args.gso,
        params=args.params,
        file_size=int(args.size_mib * 1024 * 1024),
        repetitions=args.reps,
        seed=args.seed,
        network=network,
    )
    config.validate()
    cache = _make_cache(args)
    print(f"running {config.label} x{config.repetitions} ...")
    summary = _run_grid(args, cache, {config.label: config})[config.label]
    print(summary.describe())
    injected = sum(r.injected_drops for r in summary.results)
    if injected:
        print(
            f"injected drops (fault injection): {injected} across "
            f"{len(summary.results)} reps — congestion drops reported above"
        )

    # Pool distribution metrics over all repetitions (gaps/trains are computed
    # per repetition so they never straddle repetition boundaries), as the
    # paper combines all repetitions per setting. Reporting repetition 0 alone
    # misrepresents the run whenever repetitions differ.
    groups = summary.pooled_records
    if groups:
        gaps = pooled_gaps(groups)
        reps = len(groups)
        print(
            f"back-to-back share (pooled, {reps} reps): "
            f"{fraction_leq(gaps, us(15)) * 100:.1f}%"
        )
        print(
            f"packets in trains <= 5 (pooled, {reps} reps): "
            f"{pooled_fraction_of_packets_in_trains_leq(groups, 5) * 100:.1f}%"
        )
        print(
            render_histogram(
                pooled_packets_by_train_length(groups),
                title=f"train lengths (pooled, {reps} reps)",
            )
        )
    if cache is not None:
        print(f"cache: {cache.stats}", file=sys.stderr)

    if args.json:
        from repro.framework.artifacts import save_summary

        path = save_summary(summary, args.json)
        print(f"saved {path}")
    if args.capture and summary.results:
        from repro.metrics.capture_io import save_capture

        path = save_capture(summary.results[0].server_records, args.capture)
        print(f"saved capture (rep 0) {path}")
    return _report_failures({config.label: summary})


def _sweep_grid(args: argparse.Namespace) -> dict:
    """The table's grid at its own scale, but for the flags the user gave."""
    given = dict(
        file_size=None if args.size_mib is None else int(args.size_mib * 1024 * 1024),
        repetitions=args.reps,
        seed=args.seed,
    )
    grid_of, _rows = TABLES[args.grid]
    return grid_of(**{key: value for key, value in given.items() if value is not None})


def _cmd_sweep(args: argparse.Namespace) -> int:
    cache = _make_cache(args)
    grid = _sweep_grid(args)
    reps = next(iter(grid.values())).repetitions
    print(f"sweeping {len(grid)} configurations x{reps} reps ...")
    summaries = _run_grid(args, cache, grid)

    rows = []
    for name, summary in summaries.items():
        groups = summary.pooled_records
        rows.append(
            [
                name,
                summary.config.label,
                str(summary.goodput),
                str(summary.dropped),
                str(sum(r.injected_drops for r in summary.results)),
                f"{fraction_leq(pooled_gaps(groups), us(15)) * 100:.1f}%" if groups else "-",
                f"{pooled_fraction_of_packets_in_trains_leq(groups, 5) * 100:.1f}%"
                if groups
                else "-",
                f"{len(summary.failures)}/{summary.config.repetitions}"
                if summary.failures
                else "0",
            ]
        )
    print(
        render_table(
            ["name", "config", "goodput [Mbit/s]", "dropped", "injected", "b2b share", "trains<=5", "failed"],
            rows,
            title=f"sweep: {args.grid} (metrics pooled over {reps} reps)",
        )
    )
    print(render(summaries, TABLES[args.grid][1]))
    if cache is not None:
        print(f"cache: {cache.stats}", file=sys.stderr)
    return _report_failures(summaries)


def _cmd_population(args: argparse.Namespace) -> int:
    from repro.framework.population import PopulationConfig
    from repro.units import ms, seconds

    config = PopulationConfig(
        flows=args.flows,
        arrival=args.arrival,
        arrival_rate_per_s=args.rate,
        file_size=int(args.size_kib * 1024),
        size_dist=args.size_dist,
        extra_rtt_max_ns=int(ms(1) * args.rtt_spread_ms),
        profiles=tuple(args.profiles),
        repetitions=args.reps,
        seed=args.seed,
        max_sim_time_ns=seconds(args.max_sim_s),
        churn=args.churn,
    )
    config.validate()
    cache = _make_cache(args)
    print(
        f"running population: {config.flows} flows, {config.arrival} arrivals, "
        f"{len(config.profiles)} profile(s), x{config.repetitions} rep(s) ..."
    )
    summaries = _run_grid(args, cache, {config.label: config})
    summary = summaries[config.label]
    if summary.results:
        rep0 = summary.results[0]
        rows = [
            [
                label,
                str(int(stats["flows"])),
                str(int(stats["completed"])),
                f"{stats['goodput_mbps_mean']:.2f}",
                f"{stats['fct_ms_mean']:.0f}",
                str(int(stats["dropped"])),
            ]
            for label, stats in rep0.per_profile.items()
        ]
        print(
            render_table(
                ["profile", "flows", "done", "goodput [Mbit/s]", "FCT [ms]", "dropped"],
                rows,
                title=f"population (rep 0, seed {rep0.seed})",
            )
        )
        for metric, dist in (
            ("goodput [Mbit/s]", rep0.goodput_dist),
            ("FCT [ms]", rep0.fct_ms_dist),
        ):
            print(
                f"{metric}: mean {dist['mean']:.2f}  p50 {dist['p50']:.2f}  "
                f"p90 {dist['p90']:.2f}  p99 {dist['p99']:.2f}"
            )
        fairness = [r.fairness for r in summary.results]
        completed = [r.completed_count for r in summary.results]
        print(
            f"completed {sum(completed) / len(completed):.0f}/{config.flows} flows, "
            f"Jain fairness (completed flows) {sum(fairness) / len(fairness):.3f} "
            f"over {len(summary.results)} rep(s)"
        )
        if rep0.completed:
            for winner, loser in rep0.beats:
                print(f"  {winner} beats {loser} (mean goodput, >5% margin)")
    if cache is not None:
        print(f"cache: {cache.stats}", file=sys.stderr)
    if args.json:
        from repro.framework.artifacts import save_summary

        path = save_summary(summary, args.json)
        print(f"saved {path}")
    failed = _report_failures(summaries)
    stalled = [f.spec.label for r in summary.results for f in r.multi.flows if not f.completed]
    if stalled:
        print(
            f"{len(stalled)} of {config.flows * len(summary.results)} flow(s) did not complete: "
            + ", ".join(dict.fromkeys(stalled))
        )
        return 1
    return failed


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.metrics.capture_io import load_capture
    from repro.metrics.report import render_cdf
    from repro.metrics.timeline import analyze_cycle

    records = load_capture(args.capture)
    if args.src:
        records = records.from_host(args.src)
    if not records:
        print("no records after filtering")
        return 1
    duration = records.time_ns[-1] - records.time_ns[0]
    print(f"{len(records)} frames over {fmt_time(duration)}")

    # One sort answers both the CDF and the back-to-back share.
    gaps = Distribution(inter_packet_gaps(records))
    print(render_cdf({"gaps": gaps.cdf()}, title="inter-packet gap CDF"))
    print(f"back-to-back share (<= 15 us): {gaps.fraction_leq(us(15)) * 100:.1f}%")
    print(
        "packets in trains <= 5:        "
        f"{fraction_of_packets_in_trains_leq(records, 5) * 100:.1f}%"
    )
    print(render_histogram(packets_by_train_length(records), title="train lengths"))
    report = analyze_cycle(records)
    if report.burst_count:
        print(
            f"bursts: {report.burst_count} (median {report.median_burst_packets:.0f} pkts), "
            f"median idle {report.median_idle_ns / 1e6:.1f} ms, "
            f"dominant cycle {report.cycle_ns / 1e6 if report.cycle_ns else float('nan'):.1f} ms"
        )
    return 0


def _add_store_filters(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "filters", "restrict to repetitions matching every given filter"
    )
    group.add_argument("--name", help="grid name (e.g. quiche, gso-on)")
    group.add_argument("--label", help="full configuration label")
    group.add_argument("--kind", choices=("experiment", "population"))
    group.add_argument("--stack", choices=STACKS)
    group.add_argument("--cca", choices=CCA_NAMES)
    group.add_argument("--qdisc", choices=QDISCS)
    group.add_argument("--gso", choices=GSO_MODES)
    group.add_argument(
        "--impairment", metavar="SLUG",
        help="impairment slug substring (e.g. loss-0.01, ge, reorder)",
    )
    group.add_argument(
        "--completed", action=argparse.BooleanOptionalAction, default=None,
        help="only repetitions that (--no-completed: did not) finish the transfer",
    )


def _store_filters(args: argparse.Namespace) -> dict:
    keys = FILTER_COLUMNS + ("impairment", "completed")
    return {key: getattr(args, key, None) for key in keys}


def _open_store(path: str) -> ResultStore:
    """Open an existing store for reading; never create one as a side effect."""
    from pathlib import Path

    if not Path(path).exists():
        raise ConfigError(f"no result store at {path!r} (create one with --store)")
    return ResultStore(path, stream=sys.stderr)


def _percentiles(raw: Optional[str]) -> tuple:
    if not raw:
        return (0.5, 0.9, 0.99)
    return tuple(float(part) / 100.0 for part in raw.split(","))


def _cmd_query(args: argparse.Namespace) -> int:
    with _open_store(args.store_path) as store:
        if args.failures:
            failures = store.failures(args.name)
            if not failures:
                print("no failure records match")
                return 0
            for failure in failures:
                print(failure.describe())
            return 0
        filters = _store_filters(args)
        if args.metric:
            agg = store.aggregate(
                args.metric, percentiles=_percentiles(args.percentiles), **filters
            )
            for key, value in agg.items():
                print(f"{key}: {value:.4f}" if isinstance(value, float) else f"{key}: {value}")
            return 0
        rows_data = store.query(**filters)
        if not rows_data:
            print("no repetitions match")
            return 1
        rows = []
        for r in rows_data:
            rows.append(
                [
                    r["name"],
                    r["label"],
                    str(r["rep"]),
                    str(r["seed"]),
                    "yes" if r["completed"] else "no",
                    f"{r['goodput_mbps']:.2f}",
                    str(r["dropped"]),
                    str(r["injected_drops"]),
                    f"{r['b2b_share'] * 100:.1f}%" if r["b2b_share"] is not None else "-",
                    f"{r['trains_leq5_share'] * 100:.1f}%"
                    if r["trains_leq5_share"] is not None
                    else "-",
                    r["fingerprint"][:12],
                ]
            )
        print(
            render_table(
                [
                    "name", "config", "rep", "seed", "done", "goodput [Mbit/s]",
                    "dropped", "injected", "b2b share", "trains<=5", "fingerprint",
                ],
                rows,
                title=f"{len(rows)} repetition(s)",
            )
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    with _open_store(args.store_path) as store:
        groups = store.group_summaries(**_store_filters(args))
        if not groups:
            print("no repetitions match")
            return 1
        rows = []
        for name, g in groups.items():
            rows.append(
                [
                    name,
                    g["label"],
                    str(g["reps"]),
                    str(g["goodput"]) if g["goodput"] is not None else "-",
                    str(g["dropped"]) if g["dropped"] is not None else "-",
                    str(g["injected"]),
                    f"{g['b2b_share'] * 100:.1f}%" if g["b2b_share"] is not None else "-",
                    f"{g['trains_leq5_share'] * 100:.1f}%"
                    if g["trains_leq5_share"] is not None
                    else "-",
                    str(g["failed"]),
                ]
            )
        headers = [
            "name", "config", "reps", "goodput [Mbit/s]", "dropped", "injected",
            "b2b share", "trains<=5", "failed",
        ]
        if args.format == "md":
            print(render_markdown_table(headers, rows))
        else:
            print(render_table(headers, rows, title="store report (metrics pooled across reps)"))
    return 0


def _cmd_store_info(args: argparse.Namespace) -> int:
    with _open_store(args.store_path) as store:
        info = store.info()
        info["fingerprint"] = store.content_fingerprint()
        print(json.dumps(info, indent=2))
    return 0


def _cmd_store_migrate(args: argparse.Namespace) -> int:
    if not args.from_cache:
        raise ConfigError("nothing to migrate: give --from-cache")
    with ResultStore(args.store_path, stream=sys.stderr) as store:
        count = store.migrate_cache(args.from_cache)
        print(f"migrated {count} repetition(s) from cache {args.from_cache}")
        print(f"store now holds {store.rep_count()} repetition(s), {store.failure_count()} failure(s)")
    return 0


def _cmd_store_merge(args: argparse.Namespace) -> int:
    with ResultStore(args.store_path, stream=sys.stderr) as store:
        merged: Counter = Counter()
        for part in args.parts:
            merged.update(store.merge_from(part))
        for name, group in store.group_summaries().items():
            print(
                f"{name}: {merged[name]} row(s) merged, "
                f"{group['reps']} repetition(s), {group['failed']} failure(s)"
            )
        print(f"store now holds {store.rep_count()} repetition(s), {store.failure_count()} failure(s)")
    return 0


def _cmd_store_export(args: argparse.Namespace) -> int:
    with _open_store(args.store_path) as store:
        path = store.export_summary_json(args.name, args.out)
        print(f"saved {path}")
    return 0


def _cmd_scenarios(_args: argparse.Namespace) -> int:
    for name, (grid_of, rows) in TABLES.items():
        grid = grid_of()
        first = next(iter(grid.values()))
        print(
            render_table(
                ["name", "configuration", "size", "claims from"],
                grid_rows(grid, rows),
                title=f"{name} grid (`sweep {name}`, {first.repetitions} reps, seed {first.seed})",
            )
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="QUIC Steps reproduction — pacing experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one configuration")
    run_p.add_argument("stack", choices=STACKS)
    _add_common(run_p)
    run_p.add_argument("--reps", type=int, default=1)
    run_p.add_argument(
        "--sf", dest="params", action="store_const", const=SF_PATCH, default=(),
        help="apply the paper's SF patch (disable quiche's rollback)",
    )
    run_p.add_argument("--json", metavar="PATH", help="save results as JSON")
    run_p.add_argument("--capture", metavar="PATH", help="save the capture as CSV")
    _add_impairments(run_p)
    _add_exec(run_p)
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser(
        "sweep", help="run a claims table's grid in parallel with result caching"
    )
    sweep_p.add_argument("grid", choices=tuple(TABLES))
    sweep_p.add_argument(
        "--size-mib", type=float, default=None,
        help="file size in MiB (default: the table's; a population's is per flow)",
    )
    sweep_p.add_argument("--reps", type=int, default=None, help="default: the table's")
    sweep_p.add_argument("--seed", type=int, default=None, help="default: the table's")
    _add_exec(sweep_p)
    sweep_p.set_defaults(func=_cmd_sweep)

    analyze_p = sub.add_parser("analyze", help="analyze a capture CSV")
    analyze_p.add_argument("capture", help="capture CSV (see repro.metrics.capture_io)")
    analyze_p.add_argument("--src", help="only frames from this source address")
    analyze_p.set_defaults(func=_cmd_analyze)

    pop_p = sub.add_parser(
        "population",
        help="run a generated flow population (hundreds of flows, one bottleneck)",
    )
    pop_p.add_argument("--flows", type=int, default=200, help="population size")
    pop_p.add_argument(
        "--arrival", default="poisson", choices=("poisson", "uniform"),
        help="arrival process (trace arrivals are API-only)",
    )
    pop_p.add_argument(
        "--rate", type=float, default=100.0, help="mean arrival rate [flows/s]"
    )
    pop_p.add_argument("--size-kib", type=float, default=256.0, help="object size in KiB")
    pop_p.add_argument(
        "--size-dist", default="fixed", choices=("fixed", "exp"),
        help="object sizes: fixed, or exponential with --size-kib mean",
    )
    pop_p.add_argument(
        "--rtt-spread-ms", type=float, default=40.0,
        help="per-flow extra RTT drawn uniformly from [0, this] ms",
    )
    pop_p.add_argument(
        "--profiles", nargs="+", metavar="STACK[:CCA[:QDISC[:GSO]]][+NAME=VALUE]",
        default=list(POPULATION_PROFILES),
        help="stack profiles assigned round-robin across the population, "
        "e.g. quiche:cubic:fq:paced tcp:bbr quiche:cubic:fq+spurious_rollback=false",
    )
    pop_p.add_argument("--reps", type=int, default=1)
    pop_p.add_argument("--seed", type=int, default=1)
    pop_p.add_argument(
        "--max-sim-s", type=float, default=600.0, help="simulated-time budget"
    )
    pop_p.add_argument(
        "--churn", action="store_true",
        help="tear each flow down when it completes (a completed flow keeps only its outputs)",
    )
    pop_p.add_argument("--json", metavar="PATH", help="save results as JSON")
    _add_exec(pop_p)
    pop_p.set_defaults(func=_cmd_population)

    query_p = sub.add_parser(
        "query", help="filter/aggregate repetitions in a result store"
    )
    query_p.add_argument("store_path", metavar="STORE", help="result store path (see --store)")
    query_p.add_argument(
        "--metric", choices=METRIC_COLUMNS,
        help="aggregate this column (mean/std/percentiles) instead of listing rows",
    )
    query_p.add_argument(
        "--percentiles", metavar="P[,P...]", default=None,
        help="percentiles for --metric, in percent (default: 50,90,99)",
    )
    query_p.add_argument(
        "--failures", action="store_true",
        help="list failure records (optionally for one --name) instead of results",
    )
    _add_store_filters(query_p)
    query_p.set_defaults(func=_cmd_query)

    report_p = sub.add_parser(
        "report", help="render summary tables from a result store"
    )
    report_p.add_argument("store_path", metavar="STORE", help="result store path (see --store)")
    report_p.add_argument(
        "--format", default="ascii", choices=("ascii", "md"),
        help="table format: ascii, or md (the EXPERIMENTS.md table format)",
    )
    _add_store_filters(report_p)
    report_p.set_defaults(func=_cmd_report)

    store_p = sub.add_parser(
        "store", help="inspect, migrate into, merge into, or export from a result store"
    )
    store_sub = store_p.add_subparsers(dest="action", required=True)
    info_p = store_sub.add_parser(
        "info", help="row counts, grid names, schema version, content fingerprint"
    )
    info_p.add_argument("store_path", metavar="STORE")
    info_p.set_defaults(func=_cmd_store_info)
    migrate_p = store_sub.add_parser(
        "migrate", help="record every readable entry of a result-cache directory"
    )
    migrate_p.add_argument("store_path", metavar="STORE", help="store to create or extend")
    migrate_p.add_argument(
        "--from-cache", metavar="DIR", default=None,
        help="migrate every readable repetition from this result-cache directory",
    )
    migrate_p.set_defaults(func=_cmd_store_migrate)
    merge_p = store_sub.add_parser(
        "merge", help="unite the part stores of a sharded campaign (see --shard)"
    )
    merge_p.add_argument("store_path", metavar="DEST", help="store to create or extend")
    merge_p.add_argument("parts", metavar="PART", nargs="+", help="part store to merge in")
    merge_p.set_defaults(func=_cmd_store_merge)
    export_p = store_sub.add_parser(
        "export", help="write one grid entry out as the JSON artifact `run --json` writes"
    )
    export_p.add_argument("store_path", metavar="STORE")
    export_p.add_argument("name", help="grid name to export (see `store info`)")
    export_p.add_argument("out", help="output JSON path")
    export_p.set_defaults(func=_cmd_store_export)

    scen_p = sub.add_parser("scenarios", help="list the paper's scenarios")
    scen_p.set_defaults(func=_cmd_scenarios)

    build_p = sub.add_parser(
        "build-info",
        help="show the build this process runs (mode, python, version)",
    )
    build_p.add_argument(
        "--json", action="store_true", help="machine-readable build_info()"
    )
    build_p.set_defaults(func=_cmd_build_info)
    return parser


def _cmd_build_info(args: argparse.Namespace) -> int:
    from repro import build_info

    info = build_info()
    if args.json:
        print(json.dumps(info, indent=1))
    else:
        print("\n".join(f"{key}: {value}" for key, value in info.items()))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        # Invalid configuration is an operator error, not a crash: one line
        # naming the offending field, conventional exit code 2.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
