"""Flow populations: hundreds of concurrent flows over one shared bottleneck.

A population is an arrival process: N arrivals (Poisson, uniformly spaced,
or trace-driven) with heterogeneous per-flow RTTs, mixed stack/CCA/qdisc
profiles and optionally heavy-tailed file sizes, all derived from one seed,
emitted as one :class:`FlowSpec` per flow for the run of
:mod:`repro.framework.multiflow` (the one run shape, a single experiment
being its N = 1). The result adds the QUICbench-style competition view:
per-flow goodput/loss/FCT distributions, Jain fairness over completed flows,
a pairwise throughput-ratio matrix across the profiles, and a transitivity
check over the induced "beats" relation.

:class:`PopulationConfig` follows the contract of
:class:`~repro.framework.config.ExperimentConfig` (``validate()``, ``label``,
``repetitions``, ``seed``, ``cache_key()`` over every field), and
:class:`PopulationResult` the result surface the sweep stack reads
(``fingerprint()``, ``goodput_mbps``, ``dropped``, ``completed``, …), so
population grids are swept, cached, stored and supervised like experiments.
Capture records default to *off*: the digest folds every frame at the tap
either way, and a 500-flow run keeps no per-packet column.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.framework.config import CanonicalForm, NetworkConfig
from repro.framework.multiflow import (
    MAX_FLOWS,
    FlowSpec,
    MultiFlowExperiment,
    MultiFlowResult,
    flow_config,
)
from repro.metrics.fairness import (
    beats_relation,
    throughput_ratio_matrix,
    transitivity_violations,
)
from repro.sim.random import RngRegistry
from repro.stacks.profiles import parse_param
from repro.units import SEC, kib, seconds

ARRIVALS = ("poisson", "uniform", "trace")
SIZE_DISTS = ("fixed", "exp")

#: Reported percentile points for the per-flow distributions.
PERCENTILES = (50, 90, 99)


def parse_profile(text: str) -> FlowSpec:
    """Parse ``"stack[:cca[:qdisc[:gso]]][+name=value]…"`` (the syntax of
    ``population --profiles``) into the sender it names; each ``+name=value``
    is one of its params (e.g. ``quiche:cubic:fq+spurious_rollback=false``,
    the SF patch).
    Size, start and extra RTT keep the :class:`FlowSpec` defaults; callers
    fill them with ``dataclasses.replace``. A profile is valid iff the
    single-flow configuration it names is."""
    head, *assignments = text.split("+")
    parts = head.split(":")
    if not 1 <= len(parts) <= 4 or not parts[0]:
        raise ConfigError(
            f"malformed profile {text!r}; expected stack[:cca[:qdisc[:gso]]][+name=value]..."
        )
    params = []
    for assignment in assignments:
        name, equals, value = assignment.partition("=")
        if not name or not equals:
            raise ConfigError(
                f"malformed param {assignment!r} in profile {text!r}; expected +name=value"
            )
        params.append((name, parse_param(name, value)))
    spec = FlowSpec(*parts, params=tuple(sorted(params)))
    flow_config(spec, NetworkConfig()).validate()
    return spec


@dataclass(frozen=True)
class PopulationConfig(CanonicalForm):
    """A generated flow population (sweepable/cacheable like a single
    experiment: every field participates in :meth:`cache_key`)."""

    flows: int = 200
    #: Arrival process: "poisson" (exponential interarrivals at
    #: ``arrival_rate_per_s``), "uniform" (evenly spaced at the same mean
    #: rate), or "trace" (explicit ``arrival_times_ns``).
    arrival: str = "poisson"
    arrival_rate_per_s: float = 50.0
    #: Explicit arrival times for ``arrival="trace"`` (one per flow).
    arrival_times_ns: Tuple[int, ...] = ()
    #: Mean (and fixed) file size; "exp" draws exponential sizes with this
    #: mean, floored at ``min_file_size``.
    file_size: int = kib(256)
    size_dist: str = "fixed"
    min_file_size: int = kib(16)
    #: Per-flow extra RTT drawn uniformly from [0, this] — heterogeneous
    #: RTTs via per-flow reverse-path delay; 0 keeps all RTTs at the base.
    extra_rtt_max_ns: int = 0
    #: Stack profiles (``"stack[:cca[:qdisc[:gso]]]"``), assigned round-robin
    #: so every profile gets an equal share of the population.
    profiles: Tuple[str, ...] = ("quiche:cubic",)
    repetitions: int = 1
    seed: int = 1
    network: NetworkConfig = field(default_factory=NetworkConfig)
    max_sim_time_ns: int = seconds(600)
    #: Keep the per-packet outputs: the tap capture, split into per-flow
    #: ``FlowResult.records``, and each server's expected-send log.
    #: Populations default to neither; the digest is the same either way.
    capture_records: bool = False
    #: Flow churn: tear each flow down when it completes (timers silenced,
    #: ports rerouted to a counting drain, references and RNG streams
    #: dropped) so a completed flow holds only its outputs; every flow is
    #: wired at t = 0, so live state is O(not yet completed), not
    #: O(active). Off by default: teardown cuts post-completion
    #: traffic (e.g. a TCP sender's FIN retransmissions), which perturbs the
    #: shared queue other flows see, so churn runs fingerprint differently.
    churn: bool = False

    def validate(self) -> None:
        if not 1 <= self.flows <= MAX_FLOWS:
            raise ConfigError(f"flows must be in [1, {MAX_FLOWS}], got {self.flows}")
        if self.arrival not in ARRIVALS:
            raise ConfigError(f"unknown arrival {self.arrival!r}; expected one of {ARRIVALS}")
        if self.arrival == "trace":
            if len(self.arrival_times_ns) != self.flows:
                raise ConfigError(
                    f"trace arrivals need {self.flows} times, got {len(self.arrival_times_ns)}"
                )
            if any(t < 0 for t in self.arrival_times_ns):
                raise ConfigError("trace arrival times must be non-negative")
        elif self.arrival_rate_per_s <= 0:
            raise ConfigError(
                f"arrival_rate_per_s must be positive, got {self.arrival_rate_per_s}"
            )
        if self.size_dist not in SIZE_DISTS:
            raise ConfigError(
                f"unknown size_dist {self.size_dist!r}; expected one of {SIZE_DISTS}"
            )
        if self.file_size <= 0:
            raise ConfigError(f"file_size must be positive, got {self.file_size}")
        if not 0 < self.min_file_size <= self.file_size:
            raise ConfigError(
                f"min_file_size must be in (0, file_size], got {self.min_file_size}"
            )
        if self.extra_rtt_max_ns < 0:
            raise ConfigError(f"extra_rtt_max_ns must be >= 0, got {self.extra_rtt_max_ns}")
        if not self.profiles:
            raise ConfigError("at least one stack profile is required")
        for text in self.profiles:
            parse_profile(text)
        if self.repetitions <= 0:
            raise ConfigError(f"repetitions must be positive, got {self.repetitions}")
        if self.max_sim_time_ns <= 0:
            raise ConfigError(f"max_sim_time_ns must be positive, got {self.max_sim_time_ns}")
        self.network.validate()

    @property
    def label(self) -> str:
        parts = [f"pop{self.flows}", self.arrival]
        parts.extend(p.replace(":", "-") for p in self.profiles)
        return "/".join(parts)


class FlowPopulation:
    """Deterministic :class:`FlowSpec` generator for a population config.

    All randomness (arrival jitter, size draws, RTT draws) comes from one
    named stream of the run's :class:`RngRegistry`, with a fixed draw order
    per flow, so a population is a pure function of (config, seed).
    """

    def __init__(self, config: PopulationConfig):
        config.validate()
        self.config = config
        self.parsed_profiles = [parse_profile(p) for p in config.profiles]

    def specs(self, seed: int) -> List[FlowSpec]:
        cfg = self.config
        rng = RngRegistry(seed).stream("population")
        specs: List[FlowSpec] = []
        clock_ns = 0.0
        for index in range(cfg.flows):
            # Fixed draw order (arrival, size, rtt) keeps the population
            # stable under changes to any single distribution's parameters.
            if cfg.arrival == "poisson":
                clock_ns += rng.expovariate(cfg.arrival_rate_per_s) * SEC
                start_ns = int(clock_ns)
            elif cfg.arrival == "uniform":
                start_ns = int(index * SEC / cfg.arrival_rate_per_s)
            else:  # trace
                start_ns = cfg.arrival_times_ns[index]
            if cfg.size_dist == "exp":
                size = max(cfg.min_file_size, int(rng.expovariate(1.0 / cfg.file_size)))
            else:
                size = cfg.file_size
            extra_rtt = int(rng.uniform(0, cfg.extra_rtt_max_ns)) if cfg.extra_rtt_max_ns else 0
            profile = self.parsed_profiles[index % len(self.parsed_profiles)]
            specs.append(
                replace(profile, file_size=size, start_ns=start_ns, extra_rtt_ns=extra_rtt)
            )
        return specs


def _percentile(sorted_values: List[float], p: float) -> float:
    """Linear-interpolated percentile of a pre-sorted non-empty list."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (p / 100) * (len(sorted_values) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    frac = rank - low
    return sorted_values[low] * (1 - frac) + sorted_values[high] * frac


def _distribution(values: List[float]) -> Dict[str, float]:
    if not values:
        return {"mean": 0.0, **{f"p{p}": 0.0 for p in PERCENTILES}}
    ordered = sorted(values)
    out = {"mean": sum(values) / len(values)}
    for p in PERCENTILES:
        out[f"p{p}"] = _percentile(ordered, p)
    return out


@dataclass
class PopulationResult:
    """A population run: the multi-flow result plus the distribution,
    fairness and competition aggregates, with the result surface of an
    :class:`ExperimentResult` for the sweep stack."""

    config: PopulationConfig
    seed: int
    multi: MultiFlowResult
    #: Per-profile aggregates: flows, completed, mean goodput/FCT, drops.
    per_profile: Dict[str, Dict[str, float]]
    #: mean/p50/p90/p99 of per-flow goodput (all flows, delivered bytes).
    goodput_dist: Dict[str, float]
    #: mean/p50/p90/p99 of completion time in ms (completed flows only).
    fct_ms_dist: Dict[str, float]
    #: mean/p50/p90/p99 of per-flow congestion drops.
    loss_dist: Dict[str, float]
    #: Jain fairness over completed flows (1.0 if none completed).
    fairness: float
    #: ``matrix[a][b]`` = profile a's mean goodput / profile b's.
    ratio_matrix: Dict[str, Dict[str, float]]
    #: Profile pairs (winner, loser) whose mean-goodput gap exceeds the margin.
    beats: List[Tuple[str, str]]
    #: Triples (a, b, c): a beats b, b beats c, but not a beats c.
    transitivity: List[Tuple[str, str, str]]

    # -- duck-typed result surface (sweep/_emit/summarize/store) -----------

    @property
    def completed(self) -> bool:
        return self.multi.all_completed

    @property
    def completed_count(self) -> int:
        return self.multi.completed_count

    @property
    def goodput_mbps(self) -> float:
        return self.multi.aggregate_goodput_mbps

    @property
    def dropped(self) -> int:
        return self.multi.total_dropped

    @property
    def injected_drops(self) -> int:
        return self.multi.injected_drops

    @property
    def duration_ns(self) -> int:
        return self.multi.sim_time_ns

    @property
    def events_processed(self) -> int:
        return self.multi.events_processed

    @property
    def wall_time_s(self) -> float:
        return self.multi.wall_time_s

    def fingerprint(self) -> str:
        """The multi-flow result's behaviour digest. The aggregates are pure
        functions of it and the config, which is identity, not behaviour."""
        return self.multi.fingerprint()


#: Relative goodput margin for the "beats" relation (wins inside this band
#: count as ties, so simulator noise cannot fabricate a pecking order).
BEATS_MARGIN = 0.05


def aggregate_population(
    config: PopulationConfig, seed: int, multi: MultiFlowResult
) -> PopulationResult:
    """Fold a finished multi-flow run into the population-level view."""
    by_profile: Dict[str, List] = {}
    for flow in multi.flows:
        by_profile.setdefault(flow.spec.label, []).append(flow)

    per_profile: Dict[str, Dict[str, float]] = {}
    profile_goodput: Dict[str, float] = {}
    for label, flows in sorted(by_profile.items()):
        goodputs = [f.goodput_mbps for f in flows]
        fcts = [f.duration_ns / 1e6 for f in flows if f.completed]
        mean_goodput = sum(goodputs) / len(goodputs)
        per_profile[label] = {
            "flows": len(flows),
            "completed": sum(1 for f in flows if f.completed),
            "goodput_mbps_mean": mean_goodput,
            "fct_ms_mean": sum(fcts) / len(fcts) if fcts else 0.0,
            "dropped": sum(f.dropped for f in flows),
            "injected_drops": sum(f.injected_drops for f in flows),
            "ack_drops": sum(f.ack_drops for f in flows),
            "bytes_received": sum(f.bytes_received for f in flows),
        }
        profile_goodput[label] = mean_goodput

    head_to_head = {}
    labels = sorted(profile_goodput)
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            head_to_head[(a, b)] = (profile_goodput[a], profile_goodput[b])
    beats = beats_relation(head_to_head, margin=BEATS_MARGIN)

    return PopulationResult(
        config=config,
        seed=seed,
        multi=multi,
        per_profile=per_profile,
        goodput_dist=_distribution([f.goodput_mbps for f in multi.flows]),
        fct_ms_dist=_distribution([f.duration_ns / 1e6 for f in multi.flows if f.completed]),
        loss_dist=_distribution([float(f.dropped) for f in multi.flows]),
        fairness=multi.fairness_completed,
        ratio_matrix=throughput_ratio_matrix(profile_goodput),
        beats=sorted(beats),
        transitivity=transitivity_violations(beats),
    )


def run_population(config: PopulationConfig, seed: Optional[int] = None) -> PopulationResult:
    """Generate the population for (config, seed) and run it to completion."""
    seed = config.seed if seed is None else seed
    specs = FlowPopulation(config).specs(seed)
    experiment = MultiFlowExperiment(
        specs,
        network=config.network,
        seed=seed,
        max_sim_time_ns=config.max_sim_time_ns,
        capture_records=config.capture_records,
        churn=config.churn,
    )
    return aggregate_population(config, seed, experiment.run())
