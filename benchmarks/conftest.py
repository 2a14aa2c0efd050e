"""Shared infrastructure for the ablation and extension benchmarks.

Each benchmark probes a design choice or an extension beyond the paper and
prints its rows (the paper's own tables and figures are the claims table,
``repro sweep paper``). Scale knobs (the paper uses 100 MiB x 20
repetitions on hardware; simulation defaults are smaller):

* ``REPRO_SCALE_MIB``  — file size per transfer (default 4)
* ``REPRO_REPS``       — repetitions per configuration (default 3)
* ``REPRO_SEED``       — base seed (default 1)

Outputs are printed and archived under ``benchmarks/output/``.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.framework.config import ExperimentConfig
from repro.units import mib

SCALE_MIB = float(os.environ.get("REPRO_SCALE_MIB", "4"))
REPS = int(os.environ.get("REPRO_REPS", "3"))
SEED = int(os.environ.get("REPRO_SEED", "1"))

OUTPUT_DIR = Path(__file__).parent / "output"


def scaled(**kwargs) -> ExperimentConfig:
    kwargs.setdefault("file_size", mib(SCALE_MIB))
    kwargs.setdefault("repetitions", REPS)
    kwargs.setdefault("seed", SEED)
    return ExperimentConfig(**kwargs)


def publish(name: str, text: str) -> None:
    """Print a result block and archive it."""
    banner = f"\n{'=' * 72}\n{name} (scale: {SCALE_MIB} MiB x {REPS} reps; paper: 100 MiB x 20)\n{'=' * 72}\n"
    print(banner + text)
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
