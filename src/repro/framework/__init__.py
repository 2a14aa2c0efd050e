"""Measurement framework: reproducible single-connection experiments over the
emulated testbed, with repetition and aggregation (paper Section 3), parallel
grid fan-out under supervision (timeouts, retries, crash recovery),
checkpoint/resume through the result store, result validation, and
persistent result caching."""

from repro.framework.cache import CACHE_VERSION, CacheStats, ResultCache, default_cache_dir
from repro.framework.config import ExperimentConfig, NetworkConfig
from repro.framework.executors import (
    BACKENDS,
    Executor,
    ForkServerExecutor,
    InProcessExecutor,
    make_executor,
)
from repro.framework.experiment import Experiment, ExperimentResult
from repro.framework.runner import RunSummary, derive_seed, run_repetitions
from repro.framework.store import STORE_VERSION, ResultStore, grid_key
from repro.framework.supervision import RepFailure, SupervisionPolicy, Supervisor
from repro.framework.sweep import SweepRunner, run_sweep
from repro.framework.validate import validate_result

__all__ = [
    "BACKENDS",
    "CACHE_VERSION",
    "CacheStats",
    "Executor",
    "ExperimentConfig",
    "ForkServerExecutor",
    "InProcessExecutor",
    "NetworkConfig",
    "Experiment",
    "ExperimentResult",
    "RepFailure",
    "ResultCache",
    "ResultStore",
    "RunSummary",
    "STORE_VERSION",
    "SupervisionPolicy",
    "Supervisor",
    "SweepRunner",
    "default_cache_dir",
    "derive_seed",
    "grid_key",
    "make_executor",
    "run_repetitions",
    "run_sweep",
    "validate_result",
]
