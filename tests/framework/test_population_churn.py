"""Flow churn and the per-component event census.

Churn (teardown on departure) is a *different deterministic workload*, not
an engine optimization: cutting post-completion traffic perturbs the shared
queue, so its fingerprint legitimately differs from the no-churn run — but
it must be a pure function of (config, seed), identical across execution
modes (serial, swept, cache-resumed). The census must be behaviour-neutral
and must certify the teardown invariant: a departed flow schedules zero
further events.
"""

from __future__ import annotations

import pytest

from repro.framework.cache import ResultCache
from repro.framework.population import PopulationConfig, run_population
from repro.framework.scenarios import population_sweep
from repro.framework.sweep import SweepRunner
from repro.units import kib, ms, seconds

#: Small, fast population crossing all stack families (two QUIC + TCP).
_BASE = dict(
    flows=30,
    arrival="poisson",
    arrival_rate_per_s=100.0,
    file_size=kib(48),
    extra_rtt_max_ns=ms(30),
    profiles=("quiche:cubic:fq", "picoquic:bbr", "tcp"),
    max_sim_time_ns=seconds(120),
    seed=5,
)

#: Recorded on the plain lazy-cancel heap; every engine change must keep
#: reproducing it bit-for-bit (the population-scale golden).
GOLDEN_PLAIN = "8484eddb03c4e44b94bd3d6017f9a3c7000a7e6d681a2ecbd4cfe8aa62b5929d"
#: Recorded when churn shipped; pins churn determinism thereafter.
GOLDEN_CHURN = "985b24de449ee96280c1036a9dc72d73bb908e00c701a342fb4bcc6d5e916320"
#: 60 flows of the 200/2000-flow mixed population with churn, carried over
#: unedited from the deleted perf gate's baseline (the CI smoke scale).
GOLDEN_CHURN_60 = "a306215035e64ef4411accced51bc0431a7d702bc76abcb9a41a0f32f60de608"


def _config(**overrides) -> PopulationConfig:
    return PopulationConfig(**{**_BASE, **overrides})


def test_population_golden_fingerprint():
    assert run_population(_config()).fingerprint() == GOLDEN_PLAIN


def test_churn_golden_fingerprint():
    result = run_population(_config(churn=True))
    assert result.fingerprint() == GOLDEN_CHURN
    assert result.completed_count == 30
    # Teardown absorbed stragglers rather than mis-routing them.
    assert result.multi.drained > 0
    assert result.multi.unrouted == 0


def test_sixty_flow_churn_golden_fingerprint():
    grid = population_sweep(60, file_size=kib(64), max_sim_time_ns=seconds(300), churn=True)
    result = run_population(grid["mixed"], seed=1)
    assert result.fingerprint() == GOLDEN_CHURN_60
    assert result.completed_count == 60


def test_drained_zero_without_churn():
    result = run_population(_config())
    assert result.multi.drained == 0


def test_churn_cache_key_stable_and_distinct():
    """Adding the churn field must not invalidate pre-existing cache keys
    (recorded on the pre-churn config schema); enabling it must."""
    assert (
        _config().cache_key()
        == "a7c47a5a59197942de7a0796bb6a4cde9602813ecd5bb810aa297dc4bfb579a1"
    )
    assert _config(churn=True).cache_key() != _config().cache_key()


def test_churn_serial_swept_and_cached_agree(tmp_path):
    """Serial run == sweep-runner run == warm-cache replay, per repetition."""
    from repro.framework.runner import derive_seed

    config = _config(churn=True, repetitions=2)
    direct = [
        run_population(config, seed=derive_seed(config.seed, rep)).fingerprint()
        for rep in range(2)
    ]
    cache = ResultCache(tmp_path / "cache")
    cold = SweepRunner(workers=2, cache=cache).run({"churn": config})
    warm = SweepRunner(workers=1, cache=cache).run({"churn": config})
    assert cache.stats.hits == 2
    assert [r.fingerprint() for r in cold["churn"].results] == direct
    assert [r.fingerprint() for r in warm["churn"].results] == direct


class TestCensus:
    def test_census_is_behaviour_neutral(self):
        """A census-instrumented run fingerprints identically."""
        result = run_population(_config(churn=True), profile_events=True)
        assert result.fingerprint() == GOLDEN_CHURN
        assert result.census is not None

    def test_departed_flows_schedule_nothing(self):
        """The churn teardown invariant, certified by the census: once a
        flow departs, no component of it schedules another event."""
        result = run_population(_config(churn=True), profile_events=True)
        totals = result.census["totals"]
        assert totals["departed"] == 30
        assert totals["post_departure"] == 0
        assert result.census["post_departure"] == {}

    def test_census_accounting_consistent(self):
        result = run_population(_config(churn=True), profile_events=True)
        census = result.census
        totals = census["totals"]
        # Every fired or stale-discarded event was scheduled first; the
        # remainder is still pending at teardown time.
        assert totals["scheduled"] >= totals["fired"] + totals["stale"]
        assert totals["fired"] == result.events_processed
        # Attribution reached every per-flow component family.
        components = census["components"]
        for expected in ("UdpSocket", "ServerDriver", "ClientDriver", "TcpSender"):
            assert expected in components, sorted(components)
        for row in components.values():
            assert row["scheduled"] >= 0 and row["fired"] >= 0

    def test_census_off_by_default(self):
        result = run_population(_config())
        assert result.census is None


def test_census_cli_reports_clean_teardown(capsys):
    """``population --profile-events`` prints the census and exits 0 when no
    departed flow scheduled anything."""
    from repro.cli import main

    rc = main(
        [
            "population",
            "--flows", "12",
            "--size-kib", "32",
            "--max-sim-s", "60",
            "--churn",
            "--profile-events",
            "--seed", "3",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "event census" in out
    assert "post-departure check: clean" in out
