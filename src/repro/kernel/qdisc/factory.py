"""Construct a qdisc from its experiment-config name."""

from __future__ import annotations

import random
from typing import Optional

from repro.errors import ConfigError
from repro.kernel.qdisc.base import Qdisc
from repro.kernel.qdisc.etf import EtfQdisc
from repro.kernel.qdisc.fq import FqQdisc
from repro.kernel.qdisc.pfifo_fast import PfifoFast
from repro.net.packet import PacketSink
from repro.sim.engine import Simulator

#: The qdisc names an experiment config accepts (``ExperimentConfig.qdisc``).
QDISCS = ("none", "fq", "etf", "etf-offload")


def make_qdisc(
    kind: str,
    sim: Simulator,
    sink: Optional[PacketSink] = None,
    rng: Optional[random.Random] = None,
    **params,
) -> Qdisc:
    """The qdisc a config's ``qdisc`` names: ``"none"`` is the kernel
    default, pfifo_fast, which draws no random numbers (``rng`` is only for
    FQ's and ETF's jitter); ``etf-offload`` is ETF (the offload itself lives
    on the NIC, LaunchTime)."""
    if kind == "none":
        return PfifoFast(sim, sink=sink, **params)
    if kind == "fq":
        return FqQdisc(sim, sink=sink, rng=rng, **params)
    if kind in ("etf", "etf-offload"):
        return EtfQdisc(sim, sink=sink, rng=rng, **params)
    raise ConfigError(f"unknown qdisc {kind!r}; expected one of {QDISCS}")
