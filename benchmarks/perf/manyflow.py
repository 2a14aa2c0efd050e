"""Many-flow population timing (ROADMAP item 2's tracked scale number).

Runs one complete flow-population simulation — N Poisson arrivals across the
four stack profiles, heterogeneous RTTs, one shared bottleneck, columnar
capture only — several times and reports the best wall-clock plus the
simulator event rate. This is the scale axis the single-connection e2e
benchmark cannot see: hundreds of concurrent sockets, per-flow timers, and
one shared queue all contending in the same event heap.

Population size follows the ``REPRO_FLOWS`` knob (default 200, the
acceptance scale; CI smoke uses a smaller population, keyed separately in
``baseline.json``).
"""

from __future__ import annotations

import os
import time
from typing import Dict

from repro.framework.population import PopulationConfig, run_population
from repro.units import kib, ms, seconds


def flow_count() -> int:
    return int(os.environ.get("REPRO_FLOWS", "200"))


def population_config(flows: int, churn: bool = False) -> PopulationConfig:
    """The benchmark workload: fixed parameters so the number tracks the
    engine, not the scenario."""
    return PopulationConfig(
        flows=flows,
        arrival="poisson",
        arrival_rate_per_s=100.0,
        file_size=kib(64),
        extra_rtt_max_ns=ms(40),
        profiles=("quiche:cubic:fq", "picoquic:bbr", "ngtcp2:cubic", "tcp"),
        max_sim_time_ns=seconds(300),
        churn=churn,
    )


def bench_manyflow(
    flows: int | None = None,
    seed: int = 1,
    runs: int = 3,
    store=None,
    name: str = "bench/manyflow",
    churn: bool = False,
) -> Dict:
    """Time the population run; optionally record the (deterministic) result
    into a :class:`~repro.framework.store.ResultStore` under ``name``.

    ``churn=True`` times the departure-teardown variant (flows torn down as
    they complete, O(active) steady-state) — a different deterministic
    workload with its own fingerprint, keyed separately in the baselines.
    """
    if flows is None:
        flows = flow_count()
    cfg = population_config(flows, churn=churn)
    times = []
    result = None
    for _ in range(runs):
        t0 = time.perf_counter()
        result = run_population(cfg, seed=seed)
        times.append(time.perf_counter() - t0)
    best = min(times)
    if store is not None:
        store.record_result(name, 0, result)
    out = {
        "flows": flows,
        "seed": seed,
        "runs": runs,
        "wall_s": round(best, 4),
        "wall_s_all": [round(t, 4) for t in times],
        "events": result.events_processed,
        "events_per_sec": round(result.events_processed / best, 1),
        "completed_flows": result.completed_count,
        "fingerprint": result.fingerprint(),
    }
    if churn:
        out["churn"] = True
        out["drained"] = result.multi.drained
    return out


def census_totals(flows: int, seed: int = 1, churn: bool = False) -> Dict:
    """One census-instrumented run (uncounted in the timing): the
    per-component totals recorded alongside the benchmark numbers."""
    result = run_population(
        population_config(flows, churn=churn), seed=seed, profile_events=True
    )
    totals = dict(result.census["totals"])
    totals["fingerprint"] = result.fingerprint()
    return totals
