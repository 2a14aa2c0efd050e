"""Paper-scale population goldens: 2000 flows over one bottleneck.

The mixed population of ``scenarios.population_sweep`` (Poisson 100/s,
64 KiB objects, RTTs spread over +40 ms, four stack profiles) at the size
``BENCH_*.json`` has tracked since BENCH_10 — ``population`` of
``benchmarks/bench`` at ``--scale 2.5`` is the same run, timed. Half a minute
per run, so it sits outside tier-1, which pins the same population at 60 and
200 flows. Fixed size and seed: the
fingerprints are machine-invariant. Each case asserts two digests from one
run: the behaviour digest ``fingerprint()`` takes (seed and outputs), and the
config-inclusive oracle's
(:func:`tests.framework.test_fingerprint_encoding.old_fingerprint`), deleted
by the first change to a config field. Digests, event counts and the drained
count were re-recorded once when a one-flow experiment became the run at
N = 1 and flow 0 took the single-flow ports and RNG stream names (plain
1 791 193 -> 1 795 637 events, churn 1 790 113 -> 1 794 620, drained
620 -> 599); with flow 0's old identity the old values reproduce.
"""

import pytest

from repro.framework.population import run_population
from repro.framework.scenarios import population_sweep
from repro.units import kib, seconds
from tests.framework.test_fingerprint_encoding import old_fingerprint

#: (behaviour digest, config-inclusive digest recorded before it)
GOLDEN_PLAIN = (
    "50815b3f2def432fdc5853aea4f7c55d3b19b306a6d1825a6cd9b231a353812b",
    "fa1182b50fbdc260110d074b20c4047952ca9d8a8a595fbc29c7249bf154964c",
)
GOLDEN_CHURN = (
    "ea80bce3d734b922739903eaf2a94bfc3189e80f7d9d293732b9ce31f690b21a",
    "01b1869185d2bfe20ba644c503ea9c02769dbfdd76cf15d8a5a9829d60cf9fb0",
)


@pytest.mark.parametrize(
    "churn, golden, events, drained",
    [(False, GOLDEN_PLAIN, 1_795_637, 0), (True, GOLDEN_CHURN, 1_794_620, 599)],
    ids=["plain", "churn"],
)
def test_two_thousand_flow_population_golden(churn, golden, events, drained):
    grid = population_sweep(2000, file_size=kib(64), max_sim_time_ns=seconds(300), churn=churn)
    result = run_population(grid["mixed"], seed=1)
    assert result.fingerprint() == golden[0]
    assert old_fingerprint(result) == golden[1]
    assert result.completed_count == 2000
    assert result.events_processed == events
    assert result.multi.drained == drained
    assert result.multi.unrouted == 0
