"""One workload in one fresh process: set-up, warm-up, timed passes.

The parent (:mod:`benchmarks.bench.measure`) starts several of these per run
so that ``setup_s`` and ``peak_rss_mib`` are measured more than once. This is
the only process that imports the program under test, and it puts ``--src``
on ``sys.path`` itself, so one copy of the benchmark can measure two trees.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import layers, reference
from .tracer import NullTracer, Tracer


def run(args: Any) -> int:
    # Set-up is bracketed by the reference kernel like every pass; the first
    # sample has to come before the imports it is there to judge.
    setup_refs = [reference.run()]
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(Path(args.src).resolve()))
    import repro

    from . import workloads

    cls = workloads.WORKLOADS[args.workload]
    work_dir = Path(args.work_dir)
    inprocess = bool(args.trace)

    def make(scale: float):
        workload = cls(args.seed, scale, work_dir, inprocess)
        workload.setup()
        return workload

    def warm_up(tracer: Any) -> None:
        # Reduced size, off the clock: lazy imports, the forkserver, code
        # caches. Its outcome is not counted.
        small = make(args.scale * workloads.WARM_UP_FACTOR)
        small.check(small.timed(tracer))

    out: Dict[str, Any] = {
        "mode": repro.build_info()["mode"],
        "python": platform.python_version(),
        "cores": 1 if inprocess else cls.cores,
    }
    tracer: Optional[Tracer] = None
    try:
        warm_up(NullTracer())
        workload = make(args.scale)
        out["setup_s"] = time.monotonic() - args.spawned_at - setup_refs[0]
        setup_refs.append(reference.run())
        out["setup_refs_s"] = setup_refs
        # A traced run splits its time between reference passes without the
        # wrappers and passes with them.
        share = 0.5 if args.trace else 1.0
        out["untraced"] = _passes(workload, NullTracer(), args.seconds * share, args.passes, setup_refs[1])
        out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            tracer = Tracer()
            layers.install(tracer)
            warm_up(tracer)
            tracer.take()
            out["traced"] = _passes(workload, tracer, args.seconds * share, args.passes, reference.run())
            out["missing"] = sorted(set(tracer.missing))
    finally:
        if tracer is not None:
            tracer.uninstall()
        _stop_multiprocessing_helpers()
    if tracer is not None and args.raw_file:
        Path(args.raw_file).write_text(json.dumps(tracer.raw))
    Path(args.result).write_text(json.dumps(out))
    return 0


def _passes(workload: Any, tracer: Any, seconds: float, passes: int, ref_s: float) -> List[Dict[str, Any]]:
    """Closed loop: the next pass starts when the previous one has returned
    and been checked. Runs ``passes`` passes, or (``passes`` = 0) until
    ``seconds`` have gone by; at least one either way. The reference kernel
    runs between passes (``ref_s``: its time just before the first), so every
    pass carries the host's speed right before and right after it."""
    traced = isinstance(tracer, Tracer)
    records: List[Dict[str, Any]] = []
    deadline = time.monotonic() + seconds
    while True:
        gc.collect()
        if traced:
            tracer.pass_id = len(records)
        cpu_start = time.process_time()
        start = time.perf_counter_ns()
        result = workload.timed(tracer)
        wall_ns = time.perf_counter_ns() - start
        record: Dict[str, Any] = {"wall_ns": wall_ns, "cpu_s": time.process_time() - cpu_start}
        record["ref_before_s"], ref_s = ref_s, reference.run()
        record["ref_after_s"] = ref_s
        if traced:
            record["counters"] = layers.read_counters(tracer)
            record["spans"] = tracer.take()
        record.update(asdict(workload.check(result)))
        del result
        records.append(record)
        if len(records) >= passes if passes else time.monotonic() >= deadline:
            return records


def _stop_multiprocessing_helpers() -> None:
    """Stop and reap the forkserver and resource tracker the sweep started.

    They would exit on their own once this process is gone, but the contract
    is that every process is waited for; ``_stop`` is what CPython's own test
    suite uses for that.
    """
    if "multiprocessing.forkserver" in sys.modules:
        from multiprocessing import forkserver

        forkserver._forkserver._stop()
    if "multiprocessing.resource_tracker" in sys.modules:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
