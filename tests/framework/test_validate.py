"""Result invariants: a real run passes; tampered results name their defect."""

import dataclasses

import pytest

from repro.errors import ValidationError
from repro.framework.config import ExperimentConfig, NetworkConfig
from repro.framework.experiment import Experiment
from repro.framework.validate import validate_result
from repro.net.impairments import iid_loss
from repro.net.tap import CaptureColumns
from repro.sim.random import derive_seed
from repro.units import kib


@pytest.fixture(scope="module")
def result():
    cfg = ExperimentConfig(stack="quiche", file_size=kib(150), repetitions=1)
    return Experiment(cfg, seed=derive_seed(cfg.seed, 0)).run()


def _expect(invariant, broken):
    with pytest.raises(ValidationError) as excinfo:
        validate_result(broken)
    assert str(excinfo.value).startswith(invariant + ":")


def test_real_results_pass(result):
    validate_result(result)


def test_real_impaired_result_passes():
    cfg = ExperimentConfig(
        stack="quiche",
        file_size=kib(150),
        repetitions=1,
        network=NetworkConfig(forward_impairments=(iid_loss(0.02),)),
    )
    validate_result(Experiment(cfg, seed=derive_seed(cfg.seed, 0)).run())


def test_negative_duration_rejected(result):
    _expect("duration", dataclasses.replace(result, duration_ns=0))


def test_negative_drop_counter_rejected(result):
    _expect("dropped", dataclasses.replace(result, dropped=-1))


def test_non_monotonic_capture_rejected(result):
    records = list(result.server_records)
    records[1], records[2] = records[2], records[1]
    _expect(
        "capture-monotonic",
        dataclasses.replace(result, server_records=CaptureColumns.from_records(records)),
    )


def test_injected_drops_must_match_stage_counters(result):
    _expect("injected-drops", dataclasses.replace(result, injected_drops=7))


def test_stage_counters_must_be_consistent(result):
    stats = {"fwd/0/loss": {"seen": 10, "injected_drops": 11, "reordered": 0, "duplicated": 0}}
    _expect(
        "impairment-counters",
        dataclasses.replace(result, impairment_stats=stats, injected_drops=11),
    )


def test_completed_run_must_have_delivered_the_file(result):
    # Keep two frames: far too little payload for a "completed" download.
    _expect(
        "bytes-conservation",
        dataclasses.replace(result, server_records=result.server_records[:2]),
    )


def test_drops_cannot_exceed_frames_on_wire(result):
    _expect(
        "drop-conservation",
        dataclasses.replace(result, dropped=len(result.server_records) + 1),
    )


def test_goodput_cannot_beat_the_bottleneck(result):
    # Claim the whole download finished in 1 ms — physically impossible
    # through a 40 Mbit/s shaper.
    _expect("rate-ceiling", dataclasses.replace(result, duration_ns=1_000_000))


# -- the conservation checks a multi-flow run shares with one flow ----------


@pytest.fixture(scope="module")
def multi():
    from repro.framework.multiflow import FlowSpec, MultiFlowExperiment

    flows = [FlowSpec(file_size=kib(150)), FlowSpec(stack="tcp", file_size=kib(150))]
    return MultiFlowExperiment(flows, seed=3).run()


def test_real_multiflow_result_passes(multi):
    validate_result(multi)


def test_multiflow_negative_flow_duration_rejected(multi):
    flows = [dataclasses.replace(multi.flows[0], duration_ns=0), *multi.flows[1:]]
    _expect("duration", dataclasses.replace(multi, flows=flows))


def test_multiflow_stage_counters_must_be_consistent(multi):
    stats = {"fwd/0/loss": {"seen": 10, "injected_drops": 11, "reordered": 0, "duplicated": 0}}
    _expect("impairment-counters", dataclasses.replace(multi, impairment_stats=stats))


def test_multiflow_drops_cannot_exceed_frames_on_wire(multi):
    flows = [dataclasses.replace(f, dropped=1, wire_packets=0) for f in multi.flows]
    _expect(
        "drop-conservation", dataclasses.replace(multi, flows=flows, total_dropped=len(flows))
    )
