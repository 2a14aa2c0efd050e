"""The claims as tables: every number the reproduction states lives here,
and nowhere else.

A row is one claim: where the paper makes it, the paper's value, the band a
measured value must fall in, the metric, the grid entries it is measured on,
and its declared status: it *holds*, or it *deviates* for a stated reason.
:data:`TABLES` names each table's grid function and rows: :data:`CLAIMS`,
the paper's own tables and figures; :data:`EXTENSIONS`, the ablations of
its design choices and the extensions past its operating point; and what
fault injection, head-to-head duels and a 200-flow population show.
:func:`evaluate` measures every row of a table on the summaries of its
grid's sweep and says whether each verdict is its declared status, and
:func:`render` writes the markdown block EXPERIMENTS.md carries, which
``repro sweep <table>`` prints after the sweep table.

A table's scale is its grid function's defaults. The paper grid's base size
is 4 MiB x 3 repetitions, seed 1 (the paper ran 100 MiB x 20). Rows that
need congestion avoidance to repeat run on the x2 (8 MiB) and x4 (16 MiB)
entries; each row states its scale.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from statistics import mean
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro.framework import scenarios
from repro.framework.config import ExperimentConfig, NetworkConfig
from repro.framework.runner import RunSummary
from repro.metrics.gaps import fraction_leq, pooled_gaps
from repro.metrics.precision import pacing_precision_ns
from repro.metrics.report import render_markdown_table
from repro.metrics.timeline import analyze_cycle
from repro.metrics.trains import (
    pooled_fraction_of_packets_in_trains_leq,
    pooled_packets_by_train_length,
)
from repro.stacks.profiles import profile_for
from repro.units import SEC, mbit, mib, ms, us

BASELINES = ("quiche", "picoquic", "ngtcp2", "tcp")


def paper_grid(
    file_size: int = mib(4), repetitions: int = 3, seed: int = 1
) -> Dict[str, ExperimentConfig]:
    """Every configuration a claim names, each once. The x4 and x2 entries
    come first, so a pool starts the longest runs first."""
    x1 = dict(file_size=file_size, repetitions=repetitions, seed=seed)
    x2 = dict(x1, file_size=2 * file_size)
    x4 = dict(x1, file_size=4 * file_size)
    grid = {
        "quiche-x4": scenarios.baseline("quiche", **x4),
        "fq-x4": scenarios.quiche_fq(trace_cwnd=True, **x4),
        "fq-sf-x4": scenarios.quiche_fq(params=scenarios.SF_PATCH, **x4),
        "ngtcp2-x2": scenarios.baseline("ngtcp2", **x2),
        "ngtcp2-bbr-x2": scenarios.baseline("ngtcp2", cca="bbr", **x2),
        **{stack: scenarios.baseline(stack, **x1) for stack in BASELINES},
    }
    for name in ("picoquic-newreno", "picoquic-bbr", "quiche-bbr", "ngtcp2-bbr"):
        stack, cca = name.split("-")
        grid[name] = scenarios.baseline(stack, cca=cca, **x1)
    for qdisc in ("none", "fq", "etf", "etf-offload"):
        grid[f"{qdisc}-sf"] = scenarios.precision_config(qdisc, **x1)
    for mode in ("on", "paced"):
        grid[f"gso-{mode}"] = scenarios.quiche_gso(mode, **x1)
    return grid


#: (bottleneck rate [Mbit/s], min RTT [ms]) points of the network sweep;
#: (40, 40) is the paper's fixed setting.
NETWORK_POINTS = ((10, 10), (10, 80), (40, 40), (100, 20))
ACK_DELAYS_MS = (1, 5, 10, 25)
GSO_SEGMENTS = (2, 4, 10)
#: picoquic's bucket depths and their entries; its own depth, 16, is the
#: stock ``picoquic`` entry.
BUCKETS = {8: "picoquic-bucket8", 16: "picoquic", 24: "picoquic-bucket24"}
ETF_DELTAS_US = (100, 200, 400, 800)
#: The two-flow contests: two identical flows (SF-patched quiche over FQ),
#: and a paced flow against a bursty one.
SF_FLOW = "quiche:cubic:fq+spurious_rollback=false"
PAIRS = ((SF_FLOW, SF_FLOW), ("picoquic:bbr", "picoquic:cubic"))
#: The identical pair's grid entry.
SF_DUEL = "__vs__".join([SF_FLOW.replace(":", "-")] * 2)


def extension_grid(
    file_size: int = mib(4), repetitions: int = 1, seed: int = 1
) -> Dict[str, object]:
    """Every configuration an extension row names, one entry per cache key:
    the network sweep's 40 Mbit/s / 40 ms FQ point is also GSO off and ECN
    off, and stock picoquic is also the wired side of the WiFi rows. The
    slowest runs come first, so a pool starts them first."""
    x1 = dict(file_size=file_size, repetitions=repetitions, seed=seed)
    sf = dict(x1, stack="quiche", params=scenarios.SF_PATCH)
    grid: Dict[str, object] = {}
    for pair in PAIRS:
        grid.update(scenarios.fairness_duels(pair, **x1))
    for delta in ETF_DELTAS_US:
        grid[f"etf-{delta}us"] = scenarios.precision_config("etf", etf_delta_ns=us(delta), **x1)
    for rate_mbit, rtt_ms in NETWORK_POINTS:
        network = NetworkConfig(
            bottleneck_rate_bps=mbit(rate_mbit), one_way_delay_ns=ms(rtt_ms) // 2
        )
        for qdisc in ("none", "fq"):
            grid[f"{rate_mbit}mbit-{rtt_ms}ms-{qdisc}"] = ExperimentConfig(
                qdisc=qdisc, network=network, **sf
            )
    stock_delay = profile_for("quiche").client_max_ack_delay_ns
    for delay in ACK_DELAYS_MS:
        # The client ACKs on its delay timer alone; quiche's own delay is
        # no param.
        params = scenarios.SF_PATCH + (("client_ack_threshold", 1_000_000),)
        if ms(delay) != stock_delay:
            params += (("client_max_ack_delay_ns", ms(delay)),)
        for qdisc in ("none", "fq"):
            grid[f"ack-{delay}ms-{qdisc}"] = ExperimentConfig(
                stack="quiche", qdisc=qdisc, params=params, **x1
            )
    for segments in GSO_SEGMENTS:
        grid[f"gso-x{segments}"] = scenarios.quiche_gso("on", gso_segments=segments, **x1)
    grid["gso-paced"] = scenarios.quiche_gso("paced", **x1)
    grid["ecn"] = scenarios.quiche_fq(params=scenarios.SF_PATCH, ecn=True, **x1)
    for stack in ("picoquic", "ngtcp2"):
        grid[stack] = scenarios.baseline(stack, **x1)
        grid[f"{stack}-unpaced"] = scenarios.baseline(stack, params=scenarios.UNPACED, **x1)
    wifi = NetworkConfig(bottleneck="wifi")
    grid["wifi"] = scenarios.baseline("picoquic", network=wifi, **x1)
    grid["wifi-unpaced"] = scenarios.baseline(
        "picoquic", params=scenarios.UNPACED, network=wifi, **x1
    )
    for bucket in (8, 24):
        grid[BUCKETS[bucket]] = scenarios.baseline(
            "picoquic", params=(("bucket_packets", bucket),), **x1
        )
    for multiplier in (0.5, 2.0):
        network = NetworkConfig(buffer_bdp_multiplier=multiplier)
        for cca in ("bbr", "bbr2"):
            grid[f"{cca}-{multiplier:g}bdp"] = scenarios.baseline(
                "picoquic", cca=cca, network=network, **x1
            )
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
    1.2x the reduced window within 200 ms (a rollback restore). The scan
    goes on after the snap-back, or after the reduction if none came."""
    trace = result.cwnd_trace
    count, i = 0, 1
    while i < len(trace):
        at, cwnd = trace[i]
        i += 1
        if cwnd < trace[i - 2][1] * 0.85:
            for j in range(i, len(trace)):
                if trace[j][0] > at + ms(200):
                    break
                if trace[j][1] > cwnd * 1.2:
                    count, i = count + 1, j + 1
                    break
    return count


def _rate_scaled_trains(summary: RunSummary) -> float:
    """Share in trains ≤ 5 with the train gap scaled to the bottleneck: the
    paper's 0.1 ms is 2/5 of a packet's time at 40 Mbit/s, so "train" keeps
    meaning "closer than pacing would place packets" at other rates."""
    packet_time = 1252 * 8 * SEC // summary.config.network.bottleneck_rate_bps
    threshold = max(packet_time * 2 // 5, us(20))
    return pooled_fraction_of_packets_in_trains_leq(summary.pooled_records, 5, threshold)


def _bucket_window(summary: RunSummary) -> float:
    """Share of packets in trains of the bucket depth −2 … +4: the stack
    profile's, with the config's params applied."""
    config = summary.config
    bucket = profile_for(config.stack, config.cca, config.params).bucket_packets
    dist = pooled_packets_by_train_length(summary.pooled_records)
    near = sum(n for length, n in dist.items() if bucket - 2 <= length <= bucket + 4)
    return near / sum(dist.values())


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
RATE_TRAINS = Metric("share in trains ≤ 5, rate-scaled gap", _rate_scaled_trains)
NEAR_BUCKET = Metric("share in trains of the bucket −2 … +4", _bucket_window)
AT_16 = _train_share("share in trains of 14–18", lambda n: 14 <= n <= 18)
CROSSINGS = _per_rep(
    "kernel crossings / rep",
    lambda r: r.server_stats["gso_buffers"] or r.server_stats["packets_sent"],
)
RETX = _per_rep("retransmitted bytes / rep", lambda r: r.server_stats["stream_bytes_retx"])
FAIRNESS = _per_rep("Jain fairness", lambda r: r.fairness)
SLOWEST_FLOW = _per_rep(
    "slowest flow's goodput [Mbit/s]", lambda r: min(f.goodput_mbps for f in r.multi.flows)
)
PACED_DROPS = _per_rep(
    "drops, picoquic/bbr − picoquic/cubic",
    lambda r: r.per_profile["picoquic/bbr"]["dropped"] - r.per_profile["picoquic/cubic"]["dropped"],
)
ROLLBACK_SHARE = _per_rep(
    "rollbacks / congestion event, fewest in a rep",
    lambda r: r.server_stats["rollbacks"] / max(r.server_stats["congestion_events"], 1),
    over=min,
)
COMPLETED_FLOWS = _per_rep("flows completed, fewest in a rep", lambda r: r.completed_count, over=min)
UNROUTED = _per_rep("unrouted datagrams, most in a rep", lambda r: r.multi.unrouted, over=max)
#: The pecking order the duels are held to, strongest first.
DUEL_ORDER = ("tcp/cubic", "quiche/cubic/fq", "picoquic/bbr", "ngtcp2/cubic")


def _order_margin(result) -> float:
    """A duel's goodput ratio: the flow :data:`DUEL_ORDER` ranks higher over
    the other."""
    high, low = (
        result.per_profile[label]["goodput_mbps_mean"]
        for label in sorted(result.per_profile, key=DUEL_ORDER.index)
    )
    return high / low if low else math.inf


ORDER_MARGIN = _per_rep("goodput, higher-ranked / lower-ranked", _order_margin)


def _profile_margin(name: str, stat: str, label: str, fold: Callable) -> Metric:
    """In one population: a profile's ``stat`` minus the ``fold`` (``max``
    or ``min``) of the other profiles'."""

    def margin(result) -> float:
        stats = result.per_profile
        return stats[label][stat] - fold(v[stat] for k, v in stats.items() if k != label)

    return _per_rep(name, margin)


TCP_GOODPUT_LEAD = _profile_margin(
    "tcp/cubic goodput − max of the others [Mbit/s]", "goodput_mbps_mean", "tcp/cubic", max
)
TCP_DROPS_LEAD = _profile_margin("tcp/cubic drops − max of the others", "dropped", "tcp/cubic", max)
NGTCP2_GOODPUT_LAG = _profile_margin(
    "ngtcp2/cubic goodput − min of the others [Mbit/s]", "goodput_mbps_mean", "ngtcp2/cubic", min
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
    "diffs": (lambda v: (v[0] - v[1]) - (v[2] - v[3]), "({0} − {1}) − ({2} − {3})"),
    "ratios": (lambda v: v[0] / v[1] - v[2] / v[3], "{0} / {1} − {2} / {3}"),
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


def _point(rate_mbit: int, rtt_ms: int) -> str:
    return f"{rate_mbit}mbit-{rtt_ms}ms"


#: The ablations and extensions, measured on :func:`extension_grid`. "paper"
#: is what the paper says of the question, where it says anything.
EXTENSIONS: Tuple[Claim, ...] = (
    # §3.4 leaves other rates and RTTs to future work: is FQ's smoothing an
    # artifact of the 40 Mbit/s / 40 ms point?
    Claim("network_sweep.fq_short_trains", "§3.4", "—", "> 0.75", RATE_TRAINS,
          tuple(f"{_point(*p)}-fq" for p in NETWORK_POINTS), "min"),
    *(Claim(f"network_sweep.fq_no_burstier_{_point(*p)}", "§3.4", "—", "≥ -0.03", RATE_TRAINS,
            (f"{_point(*p)}-fq", f"{_point(*p)}-none"), "diff") for p in NETWORK_POINTS),
    *(Claim(f"network_sweep.fq_goodput_{_point(*p)}", "§3.4", "—", "> 0.6", GOODPUT,
            (f"{_point(*p)}-fq", f"{_point(*p)}-none"), "ratio") for p in NETWORK_POINTS),
    # §2: sparser ACKs weaken the ACK clock, and bursts follow without pacing.
    Claim("ack_frequency.sparse_acks_burstier", "§2", "bursts without pacing", "< -0.1",
          TRAINS_LEQ5, ("ack-25ms-none", "ack-1ms-none"), "diff"),
    Claim("ack_frequency.fq_smooth", "§2", "—", "> 0.8", TRAINS_LEQ5,
          tuple(f"ack-{d}ms-fq" for d in ACK_DELAYS_MS), "min"),
    *(Claim(f"ack_frequency.fq_smoother_{d}ms", "§2", "—", "> 0.15", TRAINS_LEQ5,
            (f"ack-{d}ms-fq", f"ack-{d}ms-none"), "diff") for d in ACK_DELAYS_MS),
    Claim("ack_frequency.fq_degrades_less", "§2", "—", "< 0", TRAINS_LEQ5,
          ("ack-1ms-fq", "ack-25ms-fq", "ack-1ms-none", "ack-25ms-none"), "diffs"),
    # The model's account of Fig. 3's 16–17-packet trains: picoquic's leaky
    # bucket empties after an idle period, so the trains follow its depth.
    *(Claim(f"bucket_size.trains_follow_bucket{b}", "Fig. 3", "—", "> 0.08", NEAR_BUCKET,
            (name,),
            deviates="the 8-packet bucket puts 0.0797 of its packets in trains of 6–12 at "
            "this seed; trains of 8 are still its commonest burst" if b == 8 else "")
      for b, name in BUCKETS.items()),
    Claim("bucket_size.mass_at_16_needs_bucket_16", "Fig. 3", "—", "> 0", AT_16,
          (BUCKETS[16], BUCKETS[8]), "diff"),
    # §4.4 calls its 200 µs ETF delta "a bit more conservative" than needed.
    Claim("etf_delta.conservative_no_late_drops", "§4.4", "200 µs: no drops", "= 0", LATE_DROPS,
          ("etf-200us", "etf-400us", "etf-800us"), "max"),
    Claim("etf_delta.aggressive_drops_late", "§4.4", "—", "> 0", LATE_DROPS, ("etf-100us",)),
    Claim("etf_delta.no_goodput_past_200us", "§4.4", "—", "< 2", GOODPUT,
          ("etf-800us", "etf-200us"), "spread"),
    # §4.3: smaller GSO buffers trade kernel crossings against bursts; paced
    # GSO has both.
    Claim("gso_buffer.crossings_x2_over_x4", "§4.3", "—", "> 0", CROSSINGS,
          ("gso-x2", "gso-x4"), "diff"),
    Claim("gso_buffer.crossings_x4_over_x10", "§4.3", "—", "> 0", CROSSINGS,
          ("gso-x4", "gso-x10"), "diff"),
    Claim("gso_buffer.crossings_off_over_x2", "§4.3", "—", "> 0", CROSSINGS,
          ("40mbit-40ms-fq", "gso-x2"), "diff"),
    Claim("gso_buffer.x2_smoother_than_x10", "§4.3", "a trade-off", "> 0", TRAINS_LEQ5,
          ("gso-x2", "gso-x10"), "diff"),
    Claim("gso_buffer.paced_smooth", "§4.3", "—", "> 0.9", TRAINS_LEQ5, ("gso-paced",)),
    Claim("gso_buffer.paced_batches", "§4.3", "—", "< 0.5", CROSSINGS,
          ("gso-paced", "40mbit-40ms-fq"), "ratio"),
    # §5, Manzoor et al. turn pacing off for WiFi without looking at the wire.
    Claim("no_pacing.picoquic_burstier", "§5", "—", "< 0", TRAINS_LEQ5,
          ("picoquic-unpaced", "picoquic"), "diff"),
    Claim("no_pacing.ngtcp2_burstier", "§5", "—", "< 0", TRAINS_LEQ5,
          ("ngtcp2-unpaced", "ngtcp2"), "diff"),
    Claim("wifi_aggregation.unpaced_faster", "§5", "unpaced wins on WiFi", "> 0", GOODPUT,
          ("wifi-unpaced", "wifi"), "diff"),
    Claim("wifi_aggregation.unpaced_gain", "§5", "—", "> 1.04", GOODPUT,
          ("wifi-unpaced", "wifi"), "ratio"),
    Claim("wifi_aggregation.gain_is_the_link", "§5", "—", "< 0", GOODPUT,
          ("picoquic-unpaced", "picoquic", "wifi-unpaced", "wifi"), "ratios"),
    Claim("wifi_aggregation.wired_unpaced_drops", "§5", "—", "> 0", DROPS,
          ("picoquic-unpaced", "picoquic"), "diff"),
    # §5, Song et al.: BBRv2 trades throughput for fewer retransmissions.
    Claim("bbr2.shallow_fewer_drops", "§5", "fewer retransmissions", "< 0.5", DROPS,
          ("bbr2-0.5bdp", "bbr-0.5bdp"), "ratio"),
    Claim("bbr2.shallow_lower_goodput", "§5", "lower throughput", "< 0", GOODPUT,
          ("bbr2-0.5bdp", "bbr-0.5bdp"), "diff"),
    Claim("bbr2.shallow_not_starved", "§5", "—", "> 8", GOODPUT, ("bbr2-0.5bdp",)),
    Claim("bbr2.deep_loss_free", "§5", "—", "= 0", DROPS, ("bbr-2bdp", "bbr2-2bdp"), "max"),
    Claim("bbr2.deep_comparable", "§5", "—", "> 0.85", GOODPUT,
          ("bbr2-2bdp", "bbr-2bdp"), "ratio"),
    # Beyond the paper: how much of its loss one bit of ECN avoids.
    Claim("ecn.fewer_drops", "Tables 1–2", "—", "< 0.25", DROPS,
          ("ecn", "40mbit-40ms-fq"), "ratio"),
    Claim("ecn.goodput_kept", "Tables 1–2", "—", "> 0.9", GOODPUT,
          ("ecn", "40mbit-40ms-fq"), "ratio"),
    Claim("ecn.no_more_retx", "Tables 1–2", "—", "≤ 0", RETX, ("ecn", "40mbit-40ms-fq"), "diff"),
    # §3.4 leaves competing connections to future work.
    Claim("competing_flows.pair_fair", "§3.4", "0.991 archived (SF patch)", "> 0.9", FAIRNESS,
          (SF_DUEL,)),
    Claim("competing_flows.pair_fills_link", "§3.4", "36.4 archived (SF patch)", "> 24",
          GOODPUT, (SF_DUEL,)),
    Claim("competing_flows.paced_drops_less", "§3.4", "—", "≤ 0", PACED_DROPS,
          ("picoquic-bbr__vs__picoquic-cubic",)),
    Claim("competing_flows.none_starved", "§3.4", "—", "> 3", SLOWEST_FLOW,
          ("picoquic-bbr__vs__picoquic-cubic",)),
)

#: Stock quiche over FQ under injected faults (:func:`scenarios.impairment_sweep`):
#: what each impairment costs, and the §4.2 rollback off the clean path.
IMPAIRMENTS: Tuple[Claim, ...] = (
    Claim("impairments.light_loss_costs_nothing", "§3.4", "—", "> 0.95", GOODPUT,
          ("loss0.1%", "clean"), "ratio"),
    Claim("impairments.loss_empties_the_queue", "§3.4", "—", "= 0", DROPS, ("loss1%",)),
    Claim("impairments.loss_costs_goodput", "§3.4", "—", "< 0.8", GOODPUT, ("loss1%", "clean"),
          "ratio"),
    Claim("impairments.reorder_costlier_than_loss", "§3.4", "—", "< 0", GOODPUT,
          ("reorder", "loss1%"), "diff"),
    Claim("impairments.dup_costs_nothing", "§3.4", "—", "> 0.99", GOODPUT, ("dup", "clean"),
          "ratio"),
    Claim("impairments.flap_cuts_goodput", "§3.4", "—", "(0.5, 0.8)", GOODPUT, ("flap", "clean"),
          "ratio"),
    Claim("impairments.flap_overflows", "§3.4", "—", "> 2", DROPS, ("flap", "clean"), "per"),
    Claim("impairments.burst_rolls_back", "§4.2", "several in a row", "≥ 0.5", ROLLBACK_SHARE,
          ("burst",)),
    Claim("impairments.burst_sf_no_rollbacks", "§4.2", "0", "= 0", ROLLBACKS, ("burst-sf",)),
    Claim("impairments.rollback_keeps_goodput", "§4.2", "—", "> 0", GOODPUT,
          ("burst", "burst-sf"), "diff"),
)

_DUELS = tuple(scenarios.fairness_duels())

#: Every pair of the default profiles head to head (:func:`scenarios.fairness_duels`).
#: A complete strict order that wins every duel leaves no transitivity
#: violation.
DUELS: Tuple[Claim, ...] = (
    Claim("duels.stated_order", "§3.4", "—", "> 1.05", ORDER_MARGIN, _DUELS, "min"),
    Claim("duels.paced_pair_fair", "§3.4", "—", "> 0.99", FAIRNESS, ("quiche-cubic-fq__vs__picoquic-bbr",)),
    Claim("duels.tcp_least_fair_to_bbr", "§3.4", "—", "< 0", FAIRNESS,
          ("picoquic-bbr__vs__tcp", "quiche-cubic-fq__vs__tcp", "ngtcp2-cubic__vs__tcp"), "lag"),
)

#: 200 flows of mixed profiles on one queue (:func:`scenarios.population_sweep`).
POPULATION: Tuple[Claim, ...] = (
    Claim("population.all_complete", "§3.4", "—", "= 200", COMPLETED_FLOWS, ("mixed",)),
    Claim("population.none_unrouted", "§3.4", "—", "= 0", UNROUTED, ("mixed",)),
    Claim("population.tcp_fastest", "§3.4", "—", "> 0", TCP_GOODPUT_LEAD, ("mixed",)),
    Claim("population.tcp_most_drops", "§3.4", "—", "> 0", TCP_DROPS_LEAD, ("mixed",)),
    Claim("population.ngtcp2_slowest", "§3.4", "—", "< 0", NGTCP2_GOODPUT_LAG, ("mixed",)),
    Claim("population.far_less_fair_than_duels", "§3.4", "—", "< 0.75", FAIRNESS, ("mixed",)),
)

#: Every table ``repro sweep`` runs, by name: its grid function, whose
#: defaults are the table's scale, and its rows.
TABLES: Dict[str, Tuple[Callable[..., Dict[str, object]], Tuple[Claim, ...]]] = {
    "paper": (paper_grid, CLAIMS),
    "extensions": (extension_grid, EXTENSIONS),
    "impairments": (scenarios.impairment_sweep, IMPAIRMENTS),
    "duels": (scenarios.fairness_duels, DUELS),
    "population": (scenarios.population_sweep, POPULATION),
}


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


def grid_rows(grid: Mapping[str, ExperimentConfig], claims: Sequence[Claim]) -> List[List[str]]:
    """``[name, label, size, sources]`` per grid entry: what the rows name."""
    return [
        [
            name,
            config.label,
            _mib(config.file_size),
            ", ".join(dict.fromkeys(c.source for c in claims if name in c.configs)),
        ]
        for name, config in grid.items()
    ]


def render(summaries: Mapping[str, RunSummary], claims: Sequence[Claim] = CLAIMS) -> str:
    """A claims block of EXPERIMENTS.md: the verdicts, each at its scale
    (``repro scenarios`` lists the grids they read)."""
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
