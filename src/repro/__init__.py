"""QUIC Steps reproduction library.

A discrete-event simulation study of pacing strategies in QUIC
implementations, reproducing Kempf et al., "QUIC Steps: Evaluating Pacing
Strategies in QUIC Implementations" (CoNEXT 2025).

Quick start::

    from repro import ExperimentConfig, run_repetitions

    summary = run_repetitions(ExperimentConfig(stack="picoquic", cca="bbr"))
    print(summary.describe())
"""

import sys

from repro.framework.cache import ResultCache
from repro.framework.config import ExperimentConfig, NetworkConfig
from repro.framework.experiment import Experiment, ExperimentResult, run_experiment
from repro.framework.runner import RunSummary, derive_seed, run_repetitions
from repro.framework.sweep import SweepRunner, run_sweep
from repro.framework import scenarios
from repro.metrics import (
    cdf,
    fraction_leq,
    fraction_of_packets_in_trains_leq,
    goodput_mbps,
    inter_packet_gaps,
    pacing_precision_ns,
    packet_trains,
    packets_by_train_length,
)

__version__ = "1.0.0"


def build_info() -> dict:
    """Describe the build this process runs (observability only; nothing
    here enters a cache key or fingerprint). There is one engine, so
    ``mode`` is always ``"pure"``; ``benchmarks/bench`` records it and flags
    a change between the two sides of a comparison."""
    return {
        "mode": "pure",
        "python": sys.version.split()[0],
        "version": __version__,
    }


__all__ = [
    "build_info",
    "ExperimentConfig",
    "NetworkConfig",
    "Experiment",
    "ExperimentResult",
    "run_experiment",
    "ResultCache",
    "RunSummary",
    "SweepRunner",
    "derive_seed",
    "run_repetitions",
    "run_sweep",
    "scenarios",
    "cdf",
    "fraction_leq",
    "fraction_of_packets_in_trains_leq",
    "goodput_mbps",
    "inter_packet_gaps",
    "pacing_precision_ns",
    "packet_trains",
    "packets_by_train_length",
    "__version__",
]
