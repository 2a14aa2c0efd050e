"""Shared infrastructure for the paper-reproduction benchmarks.

Each benchmark regenerates one of the paper's tables or figures and prints
the same rows/series. Scale knobs (the paper uses 100 MiB x 20 repetitions on
hardware; simulation defaults are smaller):

* ``REPRO_SCALE_MIB``  — file size per transfer (default 4)
* ``REPRO_REPS``       — repetitions per configuration (default 3)
* ``REPRO_SEED``       — base seed (default 1)
* ``REPRO_CACHE_DIR``  — on-disk result cache (default ~/.cache/repro)
* ``REPRO_NO_CACHE``   — set to 1 to force recomputation

Outputs are printed and archived under ``benchmarks/output/``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Optional

import pytest

from repro.framework.cache import ResultCache
from repro.framework.config import ExperimentConfig
from repro.framework.runner import RunSummary, run_repetitions
from repro.units import mib

SCALE_MIB = float(os.environ.get("REPRO_SCALE_MIB", "4"))
REPS = int(os.environ.get("REPRO_REPS", "3"))
SEED = int(os.environ.get("REPRO_SEED", "1"))
NO_CACHE = os.environ.get("REPRO_NO_CACHE", "") not in ("", "0")

OUTPUT_DIR = Path(__file__).parent / "output"


def scaled(**kwargs) -> ExperimentConfig:
    kwargs.setdefault("file_size", mib(SCALE_MIB))
    kwargs.setdefault("repetitions", REPS)
    kwargs.setdefault("seed", SEED)
    return ExperimentConfig(**kwargs)


class RunCache:
    """Session-wide cache backed by the persistent disk store.

    Shared configurations run at most once per session, and not at all when
    a previous benchmark session already computed them — the disk cache
    (keyed by :meth:`ExperimentConfig.cache_key`, which covers *every*
    config field, unlike the old hand-built string key) serves completed
    repetitions back, so a repeated session is near-instant. Set
    ``REPRO_NO_CACHE=1`` to force fresh simulations.
    """

    def __init__(self, disk: Optional[ResultCache] = None) -> None:
        self._runs: dict[str, RunSummary] = {}
        self.disk = disk

    def get(self, config: ExperimentConfig) -> RunSummary:
        key = config.cache_key()
        if key not in self._runs:
            self._runs[key] = run_repetitions(config, cache=self.disk)
        return self._runs[key]


@pytest.fixture(scope="session")
def runs():
    disk = None if NO_CACHE else ResultCache()
    yield RunCache(disk=disk)
    if disk is not None:
        # The CLI's cache line (visible under ``pytest -s``): a session served
        # entirely from disk reads ``0 misses``, which is what CI asserts.
        print(f"cache: {disk.stats}", file=sys.stderr)


def publish(name: str, text: str) -> None:
    """Print a result block and archive it."""
    banner = f"\n{'=' * 72}\n{name} (scale: {SCALE_MIB} MiB x {REPS} reps; paper: 100 MiB x 20)\n{'=' * 72}\n"
    print(banner + text)
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
