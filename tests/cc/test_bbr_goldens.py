"""Golden fingerprints for the BBR controllers, cwnd trace included.

Recorded at commit 9a3bc9d (PR 23), before ``Bbr2`` stopped carrying its own
copy of ``Bbr``'s filters, round counting, full-pipe detection and PROBE_RTT
skeleton. The slow bottleneck stretches the transfer past the 10 s RTprop
expiry, so PROBE_RTT is entered and left; the loss teaches ``inflight_hi``.
Each case asserts what it exercises, so a golden cannot stop covering it
silently.

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
from repro.units import mbit, mib
from tests.framework.test_fingerprint_encoding import old_fingerprint

SLOW_LOSSY = NetworkConfig(
    bottleneck_rate_bps=mbit(4), forward_impairments=(iid_loss(0.005),)
)
LOSSY = NetworkConfig(
    forward_impairments=(burst_loss(), reordering()),
    reverse_impairments=(iid_loss(0.01),),
)

#: name -> (stack, cca, file size, network, seed, fingerprint, old digest)
GOLDEN = {
    "bbr2-slow-lossy": ("picoquic", "bbr2", mib(6), SLOW_LOSSY, 7,
        "29c22ebee834a9064e00738cfdcf4adeab7dbbfd32f34a9cf12eff56c8a37483",
        "fd87195b78169e6d445f8f7796e356a8fa3bfac657c65d6fcc4c650575bd5809",
    ),
    "bbr2-lossy": ("picoquic", "bbr2", mib(2), LOSSY, 3,
        "1f373df149aeab4def616a2f53be676500ccb9727d71076eec237d3fb8105fa8",
        "1d8244d453ec150dbeb43375d65d2e8f83565f5597f5d2bc4025b7a85d17f0fc",
    ),
    "bbr-slow-lossy": ("picoquic", "bbr", mib(6), SLOW_LOSSY, 7,
        "0482377836f79cef3d715696fdab8b44107cb6c22a2f239ce2cf371d8f527b96",
        "55b1d96bf2aba861fadf7ff711addc42882b6a81629fe484e7c3ec2ae7d9bd94",
    ),
    "ngtcp2-bbr-lossy": ("ngtcp2", "bbr", mib(2), LOSSY, 3,
        "bf2965fec56a40c9f2a4bc7e68e4476a94973c89ee0c797a89f02e594f9cb2d5",
        "bfd5352cdfa1192ab822907fa4e5cf41f0b8148456f253a8223af45ccef82033",
    ),
}


def run(name):
    stack, cca, file_size, network, seed, expected, old = GOLDEN[name]
    config = ExperimentConfig(
        stack=stack, cca=cca, file_size=file_size, network=network, seed=seed, trace_cwnd=True
    )
    experiment = Experiment(config, seed=seed)
    states = set()
    cc = experiment.flows[0].server_cc
    record = cc._record

    def recording(now):
        states.add(cc.state)
        record(now)

    cc._record = recording
    result = experiment.run()
    assert result.completed
    assert old_fingerprint(result) == old
    return cc, states, result.fingerprint(), expected


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bbr_golden_fingerprint(name):
    cc, states, fingerprint, expected = run(name)
    assert cc.congestion_events > 0 or name.startswith("ngtcp2")
    if "slow" in name:
        assert "probe_rtt" in states
    if name.startswith("bbr2"):
        assert cc.inflight_hi is not None
        assert {"startup", "drain", "probe_down", "cruise", "refill", "probe_up"} <= states
    assert fingerprint == expected
