"""Gilbert–Elliott burst loss reproduces quiche's spurious-loss cwnd rollback.

Section 4.2's pathology: quiche checkpoints CUBIC before every congestion
response and *rolls the reduction back* when the recovery episode ends with
few losses. Queue-overflow drops at a 2×BDP buffer arrive in large clumps
that fail the small-loss test, so the pathology was unreachable with the
clean-bottleneck network model; dribbled burst loss (a few packets at a
time) passes it on every episode. These tests assert the rollback signature
directly on the cwnd timeline, and that the paper's SF patch removes it.
"""

from functools import lru_cache

from repro.framework.experiment import run_experiment
from repro.framework.scenarios import IMPAIRMENT_SWEEP_SPECS, SF_PATCH, impairment_config
from repro.units import mib

SEED = 5


@lru_cache(maxsize=None)
def _run(spurious_rollback: bool):
    cfg = impairment_config(
        IMPAIRMENT_SWEEP_SPECS["burst"],
        params=() if spurious_rollback else SF_PATCH,
        file_size=mib(2),
        repetitions=1,
        trace_cwnd=True,
    )
    return run_experiment(cfg, seed=SEED)


def _restoring_jumps(cwnd_trace, factor=1.25):
    """Rollback signature: an instant cwnd jump of >= ``factor`` that lands
    exactly on a previously recorded cwnd value (the restored checkpoint).

    Ordinary growth can't produce this: congestion avoidance moves by small
    increments per ACK batch, and slow-start doubling never *returns* to an
    old value after a reduction.
    """
    jumps = []
    seen = set()
    for (t_prev, c_prev), (t, c) in zip(cwnd_trace, cwnd_trace[1:]):
        seen.add(c_prev)
        if c > c_prev * factor and c in seen:
            jumps.append((t, c_prev, c))
    return jumps


def test_burst_loss_triggers_rollback_on_cwnd_timeline():
    result = _run(True)
    assert result.completed
    # The loss pattern is injected, not congestion: the bottleneck queue
    # never overflowed, yet the controller saw loss episodes.
    assert result.injected_drops > 0
    assert result.server_stats["congestion_events"] > 0
    # Stock quiche rolled the reductions back ...
    assert result.server_stats["rollbacks"] >= 1
    # ... and the cwnd timeline shows it: instantaneous restores to the
    # checkpointed pre-reduction window.
    jumps = _restoring_jumps(result.cwnd_trace)
    assert len(jumps) >= 1
    assert len(jumps) == result.server_stats["rollbacks"]


def test_sf_patch_removes_rollback_signature():
    stock, patched = _run(True), _run(False)
    assert patched.server_stats["rollbacks"] == 0
    assert not _restoring_jumps(patched.cwnd_trace)
    # Identical injected-loss pattern (same derived streams) on both runs.
    assert patched.injected_drops == stock.injected_drops
    # The rollback keeps the window inflated through loss episodes, so stock
    # quiche outruns the patched sender under dribbled burst loss.
    assert stock.goodput_mbps > patched.goodput_mbps


def test_rollback_repeats_across_episodes():
    # "Perpetual rollbacks" (Figure 7): not a one-off — every small-loss
    # episode re-arms the checkpoint and rolls back again.
    result = _run(True)
    assert result.server_stats["rollbacks"] == result.server_stats["congestion_events"]
