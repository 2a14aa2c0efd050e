"""Paper-scale population goldens: 2000 flows over one bottleneck.

The mixed population of ``scenarios.population_sweep`` (Poisson 100/s,
64 KiB objects, RTTs spread over +40 ms, four stack profiles) at the size
``BENCH_*.json`` has tracked since BENCH_10 — ``population`` of
``benchmarks/bench`` at ``--scale 2.5`` is the same run, timed. Half a minute
per run, so it sits beside the ablation benchmarks, outside tier-1, which pins
the same population at 60 and 200 flows. Fixed size and seed: the
fingerprints are machine-invariant and were carried over unedited from
BENCH_13.json.
"""

import pytest

from repro.framework.population import run_population
from repro.framework.scenarios import population_sweep
from repro.units import kib, seconds

GOLDEN_PLAIN = "f84743826c006f92fe3b4a7a209b9c3e916398caa419a704875f970d32377a26"
GOLDEN_CHURN = "9c1ba00824a519f8232eade59d52bea718830b7c25e96e3c229375139b886192"


@pytest.mark.parametrize(
    "churn, golden, events, drained",
    [(False, GOLDEN_PLAIN, 2_423_343, 0), (True, GOLDEN_CHURN, 2_423_193, 620)],
    ids=["plain", "churn"],
)
def test_two_thousand_flow_population_golden(churn, golden, events, drained):
    grid = population_sweep(2000, file_size=kib(64), max_sim_time_ns=seconds(300), churn=churn)
    result = run_population(grid["mixed"], seed=1)
    assert result.fingerprint() == golden
    assert result.completed_count == 2000
    assert result.events_processed == events
    assert result.multi.drained == drained
    assert result.multi.unrouted == 0
