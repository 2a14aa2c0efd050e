"""Canonical configurations for every experiment in the paper's evaluation.

Names match the experiment index in DESIGN.md. Default workload scale is
8 MiB x 5 repetitions (the paper uses 100 MiB x 20 on hardware); pass a
different ``file_size``/``repetitions`` for full-scale runs. The grid
functions a claims table runs default to the table's scale instead.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations
from typing import Dict, Sequence

from repro.framework.config import ExperimentConfig, NetworkConfig
from repro.framework.population import PopulationConfig
from repro.net.impairments import (
    burst_loss,
    duplication,
    iid_loss,
    rate_flap,
    reordering,
)
from repro.units import kib, mbit, mib, ms, seconds

DEFAULT_FILE_SIZE = mib(8)
DEFAULT_REPETITIONS = 5
#: The paper's "SF" patch: quiche without its spurious-loss cwnd rollback.
SF_PATCH = (("spurious_rollback", False),)
#: The pacing-disabled ablation of Manzoor et al. (related work).
UNPACED = (("pacing", "none"),)


def _base(**kwargs) -> ExperimentConfig:
    kwargs.setdefault("file_size", DEFAULT_FILE_SIZE)
    kwargs.setdefault("repetitions", DEFAULT_REPETITIONS)
    return ExperimentConfig(**kwargs)


def baseline(stack: str, cca: str = "cubic", **kwargs) -> ExperimentConfig:
    """Section 4.1: default settings, CCA pinned to CUBIC for comparability."""
    return _base(stack=stack, cca=cca, **kwargs)


def quiche_fq(**kwargs) -> ExperimentConfig:
    """Section 4.2: quiche + FQ qdisc; ``params=SF_PATCH`` is the "SF" patch."""
    return _base(stack="quiche", qdisc="fq", **kwargs)


def quiche_gso(mode: str, **kwargs) -> ExperimentConfig:
    """Section 4.3: quiche + FQ with GSO off / on / kernel-paced.

    The SF patch is applied (the paper disables rollback for all post-4.2
    measurements).
    """
    return _base(stack="quiche", qdisc="fq", gso=mode, params=SF_PATCH, **kwargs)


def precision_config(qdisc: str, **kwargs) -> ExperimentConfig:
    """Section 4.4: quiche without GSO under none / fq / etf / etf-offload."""
    return _base(stack="quiche", qdisc=qdisc, gso="off", params=SF_PATCH, **kwargs)


#: Named impairment settings for the fault-injection sweep. ``burst`` uses
#: the dribbled Gilbert–Elliott defaults that arm quiche's small-loss
#: rollback heuristic (Section 4.2's pathology, now reachable on demand).
IMPAIRMENT_SWEEP_SPECS: Dict[str, tuple] = {
    "clean": (),
    "loss0.1%": (iid_loss(0.001),),
    "loss1%": (iid_loss(0.01),),
    "burst": (burst_loss(),),
    "reorder": (reordering(rate=0.02, extra_delay_ns=ms(4)),),
    "dup": (duplication(0.01),),
    "flap": (rate_flap(low_rate_bps=mbit(10), period_ns=ms(1000)),),
}


def impairment_config(
    specs: tuple,
    stack: str = "quiche",
    qdisc: str = "fq",
    **kwargs,
) -> ExperimentConfig:
    """One fault-injected configuration: ``specs`` on the forward path.

    Stock quiche (rollback enabled) over FQ by default — the setting where
    injected loss patterns reach the recovery pathologies the paper
    dissects. Network parameters beyond the impairments stay at the paper's
    operating point.
    """
    network = kwargs.pop("network", NetworkConfig())
    network = replace(network, forward_impairments=tuple(specs))
    return _base(stack=stack, qdisc=qdisc, network=network, **kwargs)


#: Stack profiles competing in the default population / duel grids.
POPULATION_PROFILES = ("quiche:cubic:fq", "picoquic:bbr", "ngtcp2:cubic", "tcp")


def population_sweep(
    flows: int = 200,
    profiles: Sequence[str] = POPULATION_PROFILES,
    **kwargs,
) -> Dict[str, PopulationConfig]:
    """Flow-population grid: one ``mixed`` population, every profile
    round-robin on the bottleneck. ``flows`` Poisson arrivals at 100 flows/s,
    64 KiB objects, per-flow RTTs up to +40 ms on top of the paper's 40 ms
    base. Its defaults, 200 flows x 1 repetition, are the scale of the
    ``population`` claims table."""
    kwargs.setdefault("arrival_rate_per_s", 100.0)
    kwargs.setdefault("file_size", kib(64))
    kwargs.setdefault("extra_rtt_max_ns", ms(40))
    return {"mixed": PopulationConfig(flows=flows, profiles=tuple(profiles), **kwargs)}


def fairness_duels(
    profiles: Sequence[str] = POPULATION_PROFILES,
    file_size: int = mib(2),
    **kwargs,
) -> Dict[str, PopulationConfig]:
    """QUICbench-style head-to-head grid: every unordered profile pair as a
    two-flow population (simultaneous arrival, identical RTTs). Its defaults,
    2 MiB x 1 repetition, are the scale of the ``duels`` claims table."""
    kwargs.setdefault("max_sim_time_ns", seconds(600))
    grid: Dict[str, PopulationConfig] = {}
    for a, b in combinations(profiles, 2):
        name = f"{a.replace(':', '-')}__vs__{b.replace(':', '-')}"
        grid[name] = PopulationConfig(
            flows=2,
            arrival="trace",
            arrival_times_ns=(0, 0),
            file_size=file_size,
            profiles=(a, b),
            **kwargs,
        )
    return grid


def impairment_sweep(**kwargs) -> Dict[str, ExperimentConfig]:
    """Fault-injection grid: stock quiche + FQ under each impairment in
    :data:`IMPAIRMENT_SWEEP_SPECS` (clean baseline, i.i.d. loss at two
    rates, Gilbert–Elliott burst loss, reordering, duplication, a flapping
    bottleneck), and the SF patch under the same burst loss (``burst-sf``):
    the burst-loss pair shows the spurious-loss cwnd rollback and its fix.
    Its defaults, 2 MiB x 2 repetitions, are the scale of the
    ``impairments`` claims table."""
    kwargs.setdefault("file_size", mib(2))
    kwargs.setdefault("repetitions", 2)
    grid = {
        name: impairment_config(specs, **kwargs)
        for name, specs in IMPAIRMENT_SWEEP_SPECS.items()
    }
    grid["burst-sf"] = impairment_config(
        IMPAIRMENT_SWEEP_SPECS["burst"], params=SF_PATCH, **kwargs
    )
    return grid
