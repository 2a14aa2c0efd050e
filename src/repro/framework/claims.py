"""The paper's claims as one table: every paper number the reproduction is
held to lives here, and nowhere else.

A row is one claim: where the paper makes it, the paper's value, the band a
measured value must fall in, the metric, the grid entries it is measured on,
and its declared status: it *holds*, or it *deviates* for a stated reason.
:func:`evaluate` measures every row on the summaries of a :func:`paper_grid`
sweep and says whether each verdict is its declared status, and
:func:`render` writes the markdown block EXPERIMENTS.md carries.
``repro sweep paper`` prints that block after its sweep table.

The grid's base size is 4 MiB x 3 repetitions, seed 1 (the paper ran 100 MiB
x 20). Rows that need congestion avoidance to repeat run on the x2 (8 MiB)
and x4 (16 MiB) entries; each row states its scale.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from statistics import mean
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro.framework import scenarios
from repro.framework.config import ExperimentConfig
from repro.framework.runner import RunSummary
from repro.metrics.gaps import fraction_leq, pooled_gaps
from repro.metrics.precision import pacing_precision_ns
from repro.metrics.report import render_markdown_table
from repro.metrics.timeline import analyze_cycle
from repro.metrics.trains import pooled_packets_by_train_length
from repro.units import mib, ms, us

BASE_FILE_SIZE = mib(4)
REPETITIONS = 3
SEED = 1


def paper_grid(
    file_size: int = BASE_FILE_SIZE, repetitions: int = REPETITIONS, seed: int = SEED
) -> Dict[str, ExperimentConfig]:
    """Every configuration a claim names, each once. The x4 and x2 entries
    come first, so a pool starts the longest runs first."""
    x1 = dict(file_size=file_size, repetitions=repetitions, seed=seed)
    x2 = dict(x1, file_size=2 * file_size)
    x4 = dict(x1, file_size=4 * file_size)
    grid = {
        "quiche-x4": scenarios.baseline("quiche", **x4),
        "fq-x4": scenarios.quiche_fq(True, trace_cwnd=True, **x4),
        "fq-sf-x4": scenarios.quiche_fq(False, **x4),
        "ngtcp2-x2": scenarios.baseline("ngtcp2", **x2),
        "ngtcp2-bbr-x2": scenarios.baseline("ngtcp2", cca="bbr", **x2),
        **scenarios.all_baselines(**x1),
    }
    for name in ("picoquic-newreno", "picoquic-bbr", "quiche-bbr", "ngtcp2-bbr"):
        stack, cca = name.split("-")
        grid[name] = scenarios.baseline(stack, cca=cca, **x1)
    for qdisc in ("none", "fq", "etf", "etf-offload"):
        grid[f"{qdisc}-sf"] = scenarios.precision_config(qdisc, **x1)
    for mode in ("on", "paced"):
        grid[f"gso-{mode}"] = scenarios.quiche_gso(mode, **x1)
    return grid


# -- metrics: one number per grid entry ------------------------------------


@dataclass(frozen=True)
class Metric:
    name: str
    of: Callable[[RunSummary], float]


def _per_rep(name: str, fn: Callable, over: Callable = mean) -> Metric:
    """A per-repetition number, folded over the repetitions by ``over``:
    the mean, or ``min`` for a claim every run must meet."""
    return Metric(name, lambda summary: over([fn(r) for r in summary.results]))


def _last_quarter(records):
    """The steady state Fig. 4 characterizes: at reduced scale, BBR's
    startup fills much of a run."""
    times = records.time_ns
    return records[bisect_left(times, times[0] + 3 * (times[-1] - times[0]) // 4):]


def _train_share(name: str, keep: Callable[[int], bool], steady: bool = False) -> Metric:
    """Share of packets, pooled over repetitions, in trains whose length
    passes ``keep``; ``steady`` reads the last quarter of each run only."""

    def share(summary: RunSummary) -> float:
        groups = summary.pooled_records
        if steady:
            groups = [_last_quarter(records) for records in groups]
        dist = pooled_packets_by_train_length(groups)
        return sum(n for length, n in dist.items() if keep(length)) / sum(dist.values())

    return Metric(name, share)


def _gap_share(name: str, limit_ns: int) -> Metric:
    return Metric(name, lambda s: fraction_leq(pooled_gaps(s.pooled_records), limit_ns))


def _cycle(result):
    """Section 4.1's burst cycle, read from the second half of the transfer
    (slow start excluded)."""
    records = result.server_records
    steady = records[bisect_right(records.time_ns, result.duration_ns // 2):]
    return analyze_cycle(steady, min_burst_packets=10)


def _cycle_ms(result) -> float:
    cycle_ns = _cycle(result).cycle_ns
    return cycle_ns / 1e6 if cycle_ns else math.nan


def _snap_backs(result) -> int:
    """Fig. 7's oscillation: cwnd reductions by > 15 % that snap back above
    1.2x the reduced window within 200 ms (a rollback restore)."""
    trace = result.cwnd_trace
    count, i = 0, 1
    while i < len(trace):
        at, cwnd = trace[i]
        if cwnd < trace[i - 1][1] * 0.85:
            j = i + 1
            while j < len(trace) and trace[j][0] <= at + ms(200):
                if trace[j][1] > cwnd * 1.2:
                    count += 1
                    break
                j += 1
            i = j
        i += 1
    return count


GOODPUT = Metric("goodput [Mbit/s]", lambda s: s.goodput.mean)
DROPS = Metric("drops", lambda s: s.dropped.mean)
B2B = _gap_share("share of gaps ≤ 15 µs", us(15))
SMALL_GAPS = _gap_share("share of gaps ≤ 2 ms", ms(2))
GAPS = Metric("gaps, pooled over reps", lambda s: len(pooled_gaps(s.pooled_records)))
TRAINS_LEQ5 = _train_share("share in trains ≤ 5", lambda n: n <= 5)
BUCKET = _train_share("share in trains of 15–18", lambda n: 15 <= n <= 18)
SINGLES = _train_share("share of singles", lambda n: n == 1)
STEADY_GT5 = _train_share("last-quarter share in trains > 5", lambda n: n > 5, steady=True)
BURSTS = _per_rep("bursts ≥ 10 pkts / rep, 2nd half", lambda r: _cycle(r).burst_count)
BURST_SIZE = _per_rep("median burst [pkts]", lambda r: _cycle(r).median_burst_packets)
IDLE = _per_rep("median idle ≥ 2 ms [ms]", lambda r: _cycle(r).median_idle_ns / 1e6)
CYCLE = _per_rep("dominant burst cycle [ms]", _cycle_ms)
ROLLBACKS = _per_rep("rollbacks / rep", lambda r: r.server_stats["rollbacks"])
FEWEST_ROLLBACKS = _per_rep(
    "rollbacks, fewest in a rep", lambda r: r.server_stats["rollbacks"], over=min
)
SNAP_BACKS = _per_rep("cwnd snap-backs, fewest in a rep", _snap_backs, over=min)
GSO_BUFFERS = _per_rep(
    "GSO buffers, fewest in a rep", lambda r: r.server_stats["gso_buffers"], over=min
)
LATE_DROPS = _per_rep("late drops / rep", lambda r: r.qdisc_stats["dropped_late"])
PRECISION = _per_rep(
    "pacing precision σ [ms]",
    lambda r: pacing_precision_ns(r.expected_send_log, r.server_records) / 1e6,
)


# -- bands and rows --------------------------------------------------------


_BOUNDS = {">": operator.gt, "<": operator.lt, "≥": operator.ge, "≤": operator.le, "=": operator.eq}


def in_band(value: float, band: str) -> bool:
    """Whether ``value`` is in ``band``, written as the table prints it:
    ``"> 28"`` (or ``<``, ``≥``, ``≤``, ``=``), or ``"(0.3, 0.8)"``, an
    open interval. NaN is in no band."""
    if band.startswith("("):
        low, high = map(float, band[1:-1].split(","))
        return low < value < high
    op, bound = band.split(" ")
    return _BOUNDS[op](value, float(bound))


#: How a row folds the metric of its grid entries into one value, and how
#: that reads: ``{0}``, ``{1}`` are the entries, ``{rest}`` all but the first.
COMBINE: Dict[str, Tuple[Callable[[Sequence[float]], float], str]] = {
    "value": (lambda v: v[0], "{0}"),
    "diff": (lambda v: v[0] - v[1], "{0} − {1}"),
    "ratio": (lambda v: v[0] / v[1] if v[1] else math.nan, "{0} / {1}"),
    "per": (lambda v: v[0] / max(v[1], 1.0), "{0} / max({1}, 1)"),
    "lead": (lambda v: v[0] - max(v[1:]), "{0} − max({rest})"),
    "lag": (lambda v: v[0] - min(v[1:]), "{0} − min({rest})"),
    "spread": (lambda v: max(v) - min(v), "max − min of {all}"),
    "min": (lambda v: min(v), "min({all})"),
    "max": (lambda v: max(v), "max({all})"),
}


@dataclass(frozen=True)
class Claim:
    id: str
    source: str
    #: The paper's value of the same quantity (mean ± std where it gives
    #: one), or "—" where it states a shape without a number.
    paper: str
    band: str
    metric: Metric
    configs: Tuple[str, ...]
    combine: str = "value"
    #: Why the model departs from the paper; empty when the claim holds.
    deviates: str = ""

    @property
    def formula(self) -> str:
        names = self.configs
        return COMBINE[self.combine][1].format(
            *names, rest=", ".join(names[1:]), all=", ".join(names)
        )

    @property
    def status(self) -> str:
        return f"deviates: {self.deviates}" if self.deviates else "holds"


BASELINES = ("quiche", "picoquic", "ngtcp2", "tcp")

CLAIMS: Tuple[Claim, ...] = (
    Claim("table1.tcp_goodput_best", "Table 1", "0.28 (37.37 vs 37.09)", "≥ -0.5", GOODPUT,
          ("tcp", "quiche", "picoquic", "ngtcp2"), "lead"),
    Claim("table1.tcp_fewest_drops", "Table 1", "−487 (16.50 vs 503.45)", "≤ 0", DROPS,
          ("tcp", "quiche", "picoquic", "ngtcp2"), "lag"),
    Claim("table1.quiche_goodput", "Table 1", "34.67 ± 0.64", "> 28", GOODPUT, ("quiche",)),
    Claim("table1.picoquic_goodput", "Table 1", "37.09 ± 0.03", "> 28", GOODPUT, ("picoquic",)),
    Claim("table1.ngtcp2_goodput", "Table 1", "15.93 ± 0.00", "< 20", GOODPUT, ("ngtcp2",)),
    Claim("table1.ngtcp2_goodput_gap", "Table 1", "18.74 (34.67 − 15.93)", "> 8", GOODPUT,
          ("quiche", "ngtcp2"), "diff"),
    Claim("table1.quiche_drops_vs_tcp", "Table 1", "41.6 (687.15 / 16.50)", "> 10", DROPS,
          ("quiche", "tcp"), "per"),
    Claim("table1.picoquic_drops_vs_tcp", "Table 1", "52.2 (861.45 / 16.50)", "> 10", DROPS,
          ("picoquic", "tcp"), "per"),
    Claim("table1.ngtcp2_drops_vs_tcp", "Table 1", "30.5 (503.45 / 16.50)", "> 10", DROPS,
          ("ngtcp2", "tcp"), "per",
          deviates="the ngtcp2 model is flow-control-limited (how it meets 15.93 Mbit/s) and "
          "drops ~0 packets; the paper does not name ngtcp2's loss source"),
    Claim("fig2.quiche_b2b", "Fig. 2", "≈ 0.5", "(0.3, 0.8)", B2B, ("quiche",)),
    Claim("fig2.tcp_b2b", "Fig. 2", "≈ 0.5", "(0.3, 0.8)", B2B, ("tcp",)),
    Claim("fig2.picoquic_b2b_lowest", "Fig. 2", "≈ −0.1 (0.4 vs 0.5)", "< 0", B2B,
          ("picoquic", "tcp"), "diff"),
    Claim("fig2.picoquic_b2b", "Fig. 2", "≈ 0.4", "(0.3, 0.5)", B2B, ("picoquic",),
          deviates="paced singles between the bucket bursts dominate picoquic's gaps"),
    Claim("fig2.gaps_below_2ms", "Fig. 2", "most gaps < 1.5 ms", "> 0.9", SMALL_GAPS,
          BASELINES, "min"),
    Claim("fig2.gap_count", "Fig. 2", "—", "> 500", GAPS, BASELINES, "min"),
    Claim("fig3.tcp_trains", "Fig. 3", "> 0.999", "> 0.99", TRAINS_LEQ5, ("tcp",)),
    Claim("fig3.ngtcp2_trains", "Fig. 3", "> 0.999", "> 0.99", TRAINS_LEQ5, ("ngtcp2",)),
    Claim("fig3.quiche_trains", "Fig. 3", "0.89", "> 0.8", TRAINS_LEQ5, ("quiche",)),
    Claim("fig3.picoquic_trains", "Fig. 3", "0.60", "< 0.85", TRAINS_LEQ5, ("picoquic",)),
    Claim("fig3.picoquic_burstier", "Fig. 3", "−0.29 (0.60 − 0.89)", "< 0", TRAINS_LEQ5,
          ("picoquic", "quiche"), "diff"),
    Claim("fig3.picoquic_bucket_share", "Fig. 3", "≈ 0.4 in trains of 16–17", "> 0.1", BUCKET,
          ("picoquic",)),
    Claim("fig3.picoquic_bursts", "§4.1", "one per ≈ 10 ms", "> 15", BURSTS, ("picoquic",)),
    Claim("fig3.picoquic_burst_size", "§4.1", "16–17", "(12, 20)", BURST_SIZE,
          ("picoquic",)),
    Claim("fig3.picoquic_idle", "§4.1", "≈ 5", "(2, 8)", IDLE, ("picoquic",)),
    Claim("fig3.picoquic_cycle", "§4.1", "≈ 10", "(6, 14)", CYCLE, ("picoquic",)),
    Claim("fig4.picoquic_bbr_smooth", "Fig. 4", "≈ 0", "< 0.03", STEADY_GT5, ("picoquic-bbr",)),
    Claim("fig4.picoquic_cubic_bursty", "Fig. 4", "≈ 0.4", "> 0.1", STEADY_GT5, ("picoquic",)),
    Claim("fig4.picoquic_newreno_bursty", "Fig. 4", "≈ 0.4", "> 0.15", STEADY_GT5,
          ("picoquic-newreno",)),
    Claim("fig4.picoquic_newreno_trains", "Fig. 4", "—", "< 0.85", TRAINS_LEQ5,
          ("picoquic-newreno",)),
    Claim("fig4.picoquic_bbr_drops", "Fig. 4", "—", "≤ 0", DROPS, ("picoquic-bbr", "picoquic"),
          "diff"),
    Claim("fig4.quiche_bbr_no_gain", "Fig. 4", "≈ 0", "≥ -0.05", STEADY_GT5,
          ("quiche-bbr", "quiche"), "diff"),
    Claim("fig4.ngtcp2_bbr_no_gain", "Fig. 4", "≈ 0", "≥ -0.05", STEADY_GT5,
          ("ngtcp2-bbr", "ngtcp2"), "diff"),
    Claim("fig4.ngtcp2_bbr_drops_x1", "§4.1", "—", "> 30", DROPS, ("ngtcp2-bbr",)),
    Claim("fig4.ngtcp2_bbr_loss_factor_x1", "§4.1", "≈ 10", "> 10", DROPS,
          ("ngtcp2-bbr", "ngtcp2"), "per"),
    Claim("fig4.ngtcp2_bbr_drops", "§4.1", "—", "> 50", DROPS, ("ngtcp2-bbr-x2",)),
    Claim("fig4.ngtcp2_bbr_loss_factor", "§4.1", "≈ 10", "> 10", DROPS,
          ("ngtcp2-bbr-x2", "ngtcp2-x2"), "per"),
    Claim("fig5.stock_rollbacks", "§4.2", "several in a row", "≥ 2", FEWEST_ROLLBACKS,
          ("fq-x4",)),
    Claim("fig5.sf_no_rollbacks", "§4.2", "0", "= 0", ROLLBACKS, ("fq-sf-x4",)),
    Claim("fig5.rollback_drops", "§4.2", "> 1 (1022.55 ± 324.33 with rollback)", "> 1.5", DROPS,
          ("fq-x4", "fq-sf-x4"), "per"),
    Claim("fig5.sf_trains", "Fig. 5", "≈ 1 (trains > 5 rare)", "> 0.95", TRAINS_LEQ5,
          ("fq-sf-x4",)),
    Claim("fig5.fq_shortens_trains", "Fig. 5", "> 0 (baseline: > 10 % in trains > 5)", "> 0",
          TRAINS_LEQ5, ("fq-sf-x4", "quiche-x4"), "diff"),
    Claim("fig5.fq_shortens_sf_trains", "Fig. 5", "≥ 0", "≥ 0", TRAINS_LEQ5, ("fq-sf", "none-sf"),
          "diff"),
    Claim("fig5.fq_stock_goodput_cost", "§4.2", "1.03 (34.67 − 33.64 ± 0.89)", "> 0.5", GOODPUT,
          ("quiche-x4", "fq-x4"), "diff",
          deviates="retransmissions are cheap at 16 MiB: the rollback costs no goodput"),
    Claim("fig5.fq_stock_drops", "§4.2", "1.49 (1022.55 / 687.15)", "> 1", DROPS,
          ("fq-x4", "quiche-x4"), "per",
          deviates="stock quiche loses slightly more without FQ than with it"),
    Claim("fig6.gso_on_bursty", "Fig. 6", "≈ 0", "< 0.2", TRAINS_LEQ5, ("gso-on",)),
    Claim("fig6.gso_off_smooth", "Fig. 6", "≈ 1 (Fig. 5: trains > 5 rare)", "> 0.95", TRAINS_LEQ5,
          ("fq-sf",)),
    Claim("fig6.paced_singles", "Fig. 6", "> 0.8", "> 0.8", SINGLES, ("gso-paced",)),
    Claim("fig6.paced_like_off", "Fig. 6", "paced as smooth as off", "> -0.1", SINGLES,
          ("gso-paced", "fq-sf"), "diff"),
    Claim("fig6.gso_batches", "§4.3", "—", "≥ 1", GSO_BUFFERS, ("gso-on", "gso-paced"), "min"),
    Claim("table2.gso_on_fewest_drops", "Table 2", "−154 (6.35 vs 160.80)", "< 0", DROPS,
          ("gso-on", "fq-sf", "gso-paced"), "lag"),
    Claim("table2.paced_drops_factor", "Table 2", "26.2 (166.20 / 6.35)", "> 3", DROPS,
          ("gso-paced", "gso-on"), "per"),
    Claim("table2.goodput_spread", "Table 2", "all in 31.06 – 31.71", "< 8", GOODPUT,
          ("fq-sf", "gso-on", "gso-paced"), "spread"),
    Claim("table2.gso_on_goodput_cost", "Table 2", "0.65 (31.71 − 31.06)", "< 2", GOODPUT,
          ("fq-sf", "gso-on"), "diff",
          deviates="the early HyStart++ exit leaves a small window for a 4 MiB transfer; "
          "the gap shrinks with scale, and table2.goodput_spread bounds it at 8"),
    Claim("fig7.two_valued_cwnd", "Fig. 7", "repeated", "≥ 2", SNAP_BACKS, ("fq-x4",)),
    Claim("sec44.fq_most_precise", "§4.4", "−0.15 (0.12 vs 0.27)", "< 0", PRECISION,
          ("fq-sf", "none-sf", "etf-sf", "etf-offload-sf"), "lag"),
    Claim("sec44.none_least_precise", "§4.4", "0.66 (0.94 vs 0.28)", "> 0", PRECISION,
          ("none-sf", "etf-sf", "etf-offload-sf"), "lead"),
    Claim("sec44.launchtime_no_gain", "§4.4", "1.04 (0.28 / 0.27)", "(0.5, 1.5)",
          PRECISION, ("etf-offload-sf", "etf-sf"), "ratio"),
    Claim("sec44.etf_no_late_drops", "§4.4", "—", "= 0", LATE_DROPS,
          ("etf-sf", "etf-offload-sf"), "max"),
)


# -- evaluation and rendering ----------------------------------------------


@dataclass(frozen=True)
class Verdict:
    claim: Claim
    value: float
    #: "holds", "deviates", or "incomplete" (a run failed or did not finish,
    #: or the summary holds only a shard's repetitions).
    verdict: str

    @property
    def agrees(self) -> bool:
        return self.verdict == ("deviates" if self.claim.deviates else "holds")

    @property
    def status(self) -> str:
        if self.agrees:
            return self.claim.status
        return f"**{self.verdict}** (declared {self.claim.status})"

    def describe(self) -> str:
        return (
            f"{self.claim.id}: measured {self.value:.3g}, band {self.claim.band}, "
            f"{self.verdict}; declared {self.claim.status}"
        )


def evaluate(
    summaries: Mapping[str, RunSummary], claims: Sequence[Claim] = CLAIMS
) -> List[Verdict]:
    verdicts = []
    for claim in claims:
        entries = [summaries[name] for name in claim.configs]
        if not all(len(s.results) == s.config.repetitions and s.all_completed for s in entries):
            verdicts.append(Verdict(claim, math.nan, "incomplete"))
            continue
        value = COMBINE[claim.combine][0]([claim.metric.of(s) for s in entries])
        verdicts.append(Verdict(claim, value, "holds" if in_band(value, claim.band) else "deviates"))
    return verdicts


def _mib(size: int) -> str:
    return f"{size / mib(1):g} MiB"


def grid_rows(grid: Mapping[str, ExperimentConfig]) -> List[List[str]]:
    """``[name, label, size, sources]`` per grid entry: what the rows name."""
    return [
        [
            name,
            config.label,
            _mib(config.file_size),
            ", ".join(dict.fromkeys(c.source for c in CLAIMS if name in c.configs)),
        ]
        for name, config in grid.items()
    ]


def render(summaries: Mapping[str, RunSummary], claims: Sequence[Claim] = CLAIMS) -> str:
    """The claims block of EXPERIMENTS.md: the verdicts, each at its scale
    (``repro scenarios`` lists the grid they read)."""
    verdicts = evaluate(summaries, claims)
    configs = {name: s.config for name, s in summaries.items()}
    base = min(config.file_size for config in configs.values())
    first = next(iter(configs.values()))
    held = sum(v.verdict == "holds" for v in verdicts)
    against = sum(not v.agrees for v in verdicts)
    head = (
        f"{len(verdicts)} claims at {_mib(base)} × {first.repetitions} reps, "
        f"seed {first.seed} (the paper: 100 MiB × 20): {held} hold and "
        f"{len(verdicts) - held} do not, "
        + (f"{against} of them against their declared status." if against else "as declared.")
    )
    rows = [
        [
            v.claim.id,
            v.claim.source,
            v.claim.paper,
            str(v.claim.band),
            v.claim.formula,
            v.claim.metric.name,
            f"×{configs[v.claim.configs[0]].file_size // base}",
            f"{v.value:.3g}",
            v.status,
        ]
        for v in verdicts
    ]
    headers = ["claim", "source", "paper", "band", "configs", "metric", "scale", "measured", "status"]
    return head + "\n\n" + render_markdown_table(headers, rows)
