"""The chaos suite's stand-in repetition functions.

They wrap the real ``_run_one`` and consult marker files under a directory
bound in as their first argument, so each fault fires exactly once. They
live apart from ``test_chaos_smoke`` so that a pool worker, which imports a
``run_fn``'s module before it takes a call, imports the simulator and
nothing of pytest.
"""

import os
import time
from pathlib import Path

from repro.framework.runner import _run_one


def crash_once_run_one(markers, config, seed):
    """First execution of the 'lossy' config's rep 0 kills its worker."""
    marker = Path(markers) / f"crashed-{seed}"
    if config.network.forward_impairments and not marker.exists():
        marker.touch()
        os._exit(23)
    return _run_one(config, seed)


def hang_once_run_one(markers, config, seed):
    """First execution of the 'lossy' config's rep 0 hangs past the timeout."""
    marker = Path(markers) / f"hung-{seed}"
    if config.network.forward_impairments and not marker.exists():
        marker.touch()
        time.sleep(120)
    return _run_one(config, seed)


def interrupted_run_one(markers, config, seed):
    """Simulates the operator killing the sweep after two settled reps."""
    done = len(list(Path(markers).glob("settled-*")))
    if done >= 2:
        raise KeyboardInterrupt
    result = _run_one(config, seed)
    (Path(markers) / f"settled-{seed}").touch()
    return result


def always_crash_lossy_run_one(config, seed):
    if config.network.forward_impairments:
        os._exit(29)
    return _run_one(config, seed)
