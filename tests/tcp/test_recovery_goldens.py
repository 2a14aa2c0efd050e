"""Golden fingerprints for the TCP paths the benchmark never runs.

``bulk_tcp`` has no retransmission and tier-1's single-flow TCP golden is a
loss-free run, so SACK recovery, Karn's rule and the RTO's go-back-N were
pinned only through the population goldens. The hashes below were recorded at
commit 82b5d5e (PR 21), before the sender's ACK bookkeeping was changed; each
case also asserts that it still exercises recovery, so a golden cannot stop
covering it silently.

Each case holds two digests. The first is the behaviour digest
``fingerprint()`` takes (seed and outputs). The second is the value recorded
before the fingerprint stopped covering the config, reproduced from the same
run by the config-inclusive oracle
(:func:`tests.framework.test_fingerprint_encoding.old_fingerprint`): the pair
proves the re-record moved no behaviour. The old column is deleted by the
first change to a config field.
"""

import pytest

from repro.framework.config import ExperimentConfig, NetworkConfig
from repro.framework.experiment import Experiment
from repro.net.impairments import burst_loss, iid_loss, reordering
from repro.units import mib
from tests.framework.test_fingerprint_encoding import old_fingerprint

LOSSY = NetworkConfig(
    forward_impairments=(burst_loss(), reordering()),
    reverse_impairments=(iid_loss(0.01),),
)
HEAVY = NetworkConfig(
    forward_impairments=(iid_loss(0.05),),
    reverse_impairments=(iid_loss(0.2),),
)

#: name -> (cca, file size, network, seed, fingerprint, old digest, min RTOs)
GOLDEN = {
    "cubic-lossy": (
        "cubic", mib(2), LOSSY, 3,
        "9aad7c5f88a414d7cec4646fc039fe07bded7e3e1e0429e1e4ce11b16a8ccb15",
        "083b8f8596c244a14d6d3cc219a1e469c8cb0efe91db2a35b5499106747b321a", 0,
    ),
    "bbr-lossy": (
        "bbr", mib(2), LOSSY, 3,
        "835805f1f94e3e0c3cf41e908e9d0cb2cf04de52130ba8f296d3d4abfef27cc3",
        "8146e8873aadafa57deba8c1b041177d216f3e787740cf445869b584b097ec75", 0,
    ),
    "cubic-heavy": (
        "cubic", mib(1), HEAVY, 5,
        "f2ae309fa895a259d2466e168ae1c4f4bec4c316df4dbbd5495394e3a7e5a280",
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
    cca, file_size, network, seed, expected, old, min_rtos = GOLDEN[name]
    experiment = tcp_experiment(cca, file_size, network, seed)
    result = experiment.run()
    assert result.completed
    assert experiment.flows[0].tcp_sender.retransmissions > 0
    assert experiment.flows[0].tcp_sender.rto_events >= min_rtos
    assert result.fingerprint() == expected
    assert old_fingerprint(result) == old


def test_scoreboard_forgets_what_is_acknowledged():
    """After every ACK both range sets lie at or above ``snd_una`` and
    ``sacked`` has at most one range per hole in flight, so the scoreboard is
    bounded by the window and not by the transfer's history (15 + 6 ranges
    were left at the end of this run before pruning). ``retx_sent`` is held
    to the window only: a repaired hole stays in it until the ACK point
    passes."""
    experiment = tcp_experiment("cubic", mib(2), LOSSY, 3)
    sender = experiment.flows[0].tcp_sender
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
