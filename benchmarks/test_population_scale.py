"""Paper-scale population goldens: 2000 flows over one bottleneck.

The mixed population of ``scenarios.population_sweep`` (Poisson 100/s,
64 KiB objects, RTTs spread over +40 ms, four stack profiles) at the size
``BENCH_*.json`` has tracked since BENCH_10 — ``population`` of
``benchmarks/bench`` at ``--scale 2.5`` is the same run, timed. Half a minute
per run, so it sits outside tier-1, which pins the same population at 60 and
200 flows. Fixed size and seed: the
fingerprints are machine-invariant and were carried over unedited from
BENCH_13.json, as the config-inclusive digests now in the second column.
Each case asserts both from one run: the behaviour digest ``fingerprint()``
takes (seed and outputs), and the old value through the oracle
(:func:`tests.framework.test_fingerprint_encoding.old_fingerprint`), which
proves the re-record moved no behaviour. The old column is deleted by the
first change to a config field. The event counts were re-recorded when a
link began scheduling each frame's arrival as it accepts the frame, and again
when the GSO segmenter began handing a plain datagram on in the same call and
the ACK path's delay became its link's propagation: each time they fell by
exactly the frames the run's links carried (316 075 plain, 316 540 churn),
at unchanged digests.
"""

import pytest

from repro.framework.population import run_population
from repro.framework.scenarios import population_sweep
from repro.units import kib, seconds
from tests.framework.test_fingerprint_encoding import old_fingerprint

#: (behaviour digest, config-inclusive digest recorded before it)
GOLDEN_PLAIN = (
    "7a30261d82d72489a9876a607ce84cdf0706738ebb53f5ca413199d48b1f1e20",
    "f84743826c006f92fe3b4a7a209b9c3e916398caa419a704875f970d32377a26",
)
GOLDEN_CHURN = (
    "aa084e27bb42d9daf0e9d1a0ab2cdf5d1ba2d744ce2142c4ef17f679ff98ab46",
    "9c1ba00824a519f8232eade59d52bea718830b7c25e96e3c229375139b886192",
)


@pytest.mark.parametrize(
    "churn, golden, events, drained",
    [(False, GOLDEN_PLAIN, 1_791_193, 0), (True, GOLDEN_CHURN, 1_790_113, 620)],
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
