"""End-to-end experiments at small scale (integration of everything)."""

import pytest

from repro.framework.config import ExperimentConfig
from repro.framework.experiment import Experiment, run_experiment
from repro.framework.runner import run_repetitions
from repro.framework.scenarios import SF_PATCH
from repro.units import kib, mbit, ms

SMALL = kib(300)


def run(stack="quiche", **kwargs):
    kwargs.setdefault("file_size", SMALL)
    kwargs.setdefault("repetitions", 1)
    return Experiment(ExperimentConfig(stack=stack, **kwargs), seed=11).run()


class TestQuicExperiment:
    def test_completes_and_reports(self):
        r = run("quiche")
        assert r.completed
        assert r.goodput_mbps > 1
        assert r.packets_on_wire > SMALL // 1252
        assert r.duration_ns > ms(40)  # at least one RTT

    def test_goodput_bounded_by_bottleneck(self):
        r = run("quiche")
        assert r.goodput_mbps < 40.0

    def test_deterministic_for_seed(self):
        cfg = ExperimentConfig(stack="picoquic", file_size=SMALL, repetitions=1)
        r1 = Experiment(cfg, seed=5).run()
        r2 = Experiment(cfg, seed=5).run()
        assert r1.goodput_mbps == r2.goodput_mbps
        assert r1.dropped == r2.dropped
        assert [rec.time_ns for rec in r1.server_records] == [
            rec.time_ns for rec in r2.server_records
        ]

    def test_seeds_differ(self):
        cfg = ExperimentConfig(stack="quiche", file_size=SMALL, repetitions=1)
        r1 = Experiment(cfg, seed=5).run()
        r2 = Experiment(cfg, seed=6).run()
        assert [rec.time_ns for rec in r1.server_records] != [
            rec.time_ns for rec in r2.server_records
        ]

    def test_expected_send_log_populated_for_quiche(self):
        r = run("quiche")
        assert len(r.expected_send_log) > 10

    def test_cwnd_trace_when_requested(self):
        r = run("quiche", trace_cwnd=True)
        assert len(r.cwnd_trace) > 2

    def test_gso_produces_buffers(self):
        r = run("quiche", qdisc="fq", gso="on", params=SF_PATCH)
        assert r.completed
        assert r.server_stats["gso_buffers"] > 0

    def test_etf_qdisc_with_headroom_completes(self):
        r = run("quiche", qdisc="etf", params=SF_PATCH)
        assert r.completed
        assert r.qdisc_stats["dropped_late"] == 0


class TestOtherStacks:
    @pytest.mark.parametrize("stack", ["picoquic", "ngtcp2", "tcp"])
    def test_all_stacks_complete(self, stack):
        r = run(stack)
        assert r.completed

    @pytest.mark.parametrize("cca", ["cubic", "newreno", "bbr"])
    def test_all_ccas_complete(self, cca):
        r = run("picoquic", cca=cca)
        assert r.completed


class TestRunner:
    def test_aggregates_repetitions(self):
        cfg = ExperimentConfig(stack="quiche", file_size=kib(200), repetitions=3)
        summary = run_repetitions(cfg)
        assert summary.all_completed
        assert summary.goodput.n == 3
        assert summary.dropped.n == 3
        assert len(summary.pooled_records) == 3
        assert "quiche" in summary.describe()

    def test_repetition_seeds_vary(self):
        cfg = ExperimentConfig(stack="quiche", file_size=kib(200), repetitions=2)
        summary = run_repetitions(cfg)
        seeds = [r.seed for r in summary.results]
        assert len(set(seeds)) == 2


def test_run_experiment_convenience():
    r = run_experiment(ExperimentConfig(stack="tcp", file_size=kib(100), repetitions=1))
    assert r.completed


def test_incomplete_run_reports_delivered_goodput():
    """Regression: an incomplete run's goodput came from the configured size,
    so 8 MiB cut at 600 ms read 132.2 Mbit/s through the 40 Mbit/s
    bottleneck. It is delivered bytes over the duration, and the rate
    ceiling now rejects the old number."""
    import dataclasses

    from repro.errors import ValidationError
    from repro.framework.experiment import ExperimentResult
    from repro.framework.multiflow import MultiFlowExperiment
    from repro.framework.validate import validate_result
    from repro.metrics.goodput import goodput_mbps
    from repro.units import mib

    cfg = ExperimentConfig(stack="quiche", file_size=mib(8), max_sim_time_ns=ms(600))
    run = MultiFlowExperiment.run(Experiment(cfg, seed=1))
    r = ExperimentResult.view(cfg, run)
    delivered = run.flows[0].bytes_received
    assert not r.completed
    assert 0 < delivered < cfg.file_size
    assert r.goodput_mbps == goodput_mbps(delivered, r.duration_ns)
    assert r.goodput_mbps < cfg.network.bottleneck_rate_bps / 1e6
    validate_result(r)
    with pytest.raises(ValidationError, match="rate-ceiling"):
        validate_result(
            dataclasses.replace(r, goodput_mbps=goodput_mbps(cfg.file_size, r.duration_ns))
        )
