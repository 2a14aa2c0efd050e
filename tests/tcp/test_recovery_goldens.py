"""Golden fingerprints for the TCP paths the benchmark never runs.

``bulk_tcp`` has no retransmission and tier-1's single-flow TCP golden is a
loss-free run, so SACK recovery, Karn's rule and the RTO's go-back-N were
pinned only through the population goldens. The hashes below were recorded at
commit 82b5d5e (PR 21), before the sender's ACK bookkeeping was changed; each
case also asserts that it still exercises recovery, so a golden cannot stop
covering it silently.
"""

import pytest

from repro.framework.config import ExperimentConfig, NetworkConfig
from repro.framework.experiment import Experiment
from repro.net.impairments import burst_loss, iid_loss, reordering
from repro.units import mib

LOSSY = NetworkConfig(
    forward_impairments=(burst_loss(), reordering()),
    reverse_impairments=(iid_loss(0.01),),
)
HEAVY = NetworkConfig(
    forward_impairments=(iid_loss(0.05),),
    reverse_impairments=(iid_loss(0.2),),
)

#: name -> (cca, file size, network, seed, fingerprint, min RTOs)
GOLDEN = {
    "cubic-lossy": (
        "cubic", mib(2), LOSSY, 3,
        "083b8f8596c244a14d6d3cc219a1e469c8cb0efe91db2a35b5499106747b321a", 0,
    ),
    "bbr-lossy": (
        "bbr", mib(2), LOSSY, 3,
        "8146e8873aadafa57deba8c1b041177d216f3e787740cf445869b584b097ec75", 0,
    ),
    "cubic-heavy": (
        "cubic", mib(1), HEAVY, 5,
        "dc04639ac38a9ee54676147d8ab5779d19e4eb6629f837931772010c4e36ae89", 1,
    ),
}


def tcp_experiment(cca, file_size, network, seed):
    config = ExperimentConfig(
        stack="tcp", cca=cca, file_size=file_size, network=network, seed=seed
    )
    return Experiment(config, seed=config.seed)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_recovery_golden_fingerprint(name):
    cca, file_size, network, seed, expected, min_rtos = GOLDEN[name]
    experiment = tcp_experiment(cca, file_size, network, seed)
    result = experiment.run()
    assert result.completed
    assert experiment.tcp_sender.retransmissions > 0
    assert experiment.tcp_sender.rto_events >= min_rtos
    assert result.fingerprint() == expected


def test_scoreboard_forgets_what_is_acknowledged():
    """After every ACK both range sets lie at or above ``snd_una`` and
    ``sacked`` has at most one range per hole in flight, so the scoreboard is
    bounded by the window and not by the transfer's history (15 + 6 ranges
    were left at the end of this run before pruning). ``retx_sent`` is held
    to the window only: a repaired hole stays in it until the ACK point
    passes."""
    experiment = tcp_experiment("cubic", mib(2), LOSSY, 3)
    sender = experiment.tcp_sender
    on_ack = sender._on_ack
    peak = 0

    def checked_on_ack(segment):
        nonlocal peak
        on_ack(segment)
        una = sender.snd_una
        assert all(lo >= una for lo, _hi in sender.sacked)
        assert all(lo >= una for lo, _hi in sender.retx_sent)
        holes = sender.sacked.missing_within(una, max(una, sender.highest_sacked))
        assert len(sender.sacked) <= len(holes)
        peak = max(peak, len(sender.sacked) + len(sender.retx_sent))

    sender._on_ack = checked_on_ack
    assert experiment.run().completed
    assert sender.retransmissions > 0
    assert 0 < peak <= 4
    assert len(sender.sacked) + len(sender.retx_sent) <= 4
