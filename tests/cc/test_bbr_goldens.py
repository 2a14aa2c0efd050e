"""Golden fingerprints for the BBR controllers, cwnd trace included.

Recorded at commit 9a3bc9d (PR 23), before ``Bbr2`` stopped carrying its own
copy of ``Bbr``'s filters, round counting, full-pipe detection and PROBE_RTT
skeleton. The slow bottleneck stretches the transfer past the 10 s RTprop
expiry, so PROBE_RTT is entered and left; the loss teaches ``inflight_hi``.
Each case asserts what it exercises, so a golden cannot stop covering it
silently.
"""

import pytest

from repro.framework.config import ExperimentConfig, NetworkConfig
from repro.framework.experiment import Experiment
from repro.net.impairments import burst_loss, iid_loss, reordering
from repro.units import mbit, mib

SLOW_LOSSY = NetworkConfig(
    bottleneck_rate_bps=mbit(4), forward_impairments=(iid_loss(0.005),)
)
LOSSY = NetworkConfig(
    forward_impairments=(burst_loss(), reordering()),
    reverse_impairments=(iid_loss(0.01),),
)

#: name -> (stack, cca, file size, network, seed, fingerprint)
GOLDEN = {
    "bbr2-slow-lossy": ("picoquic", "bbr2", mib(6), SLOW_LOSSY, 7,
        "fd87195b78169e6d445f8f7796e356a8fa3bfac657c65d6fcc4c650575bd5809",
    ),
    "bbr2-lossy": ("picoquic", "bbr2", mib(2), LOSSY, 3,
        "1d8244d453ec150dbeb43375d65d2e8f83565f5597f5d2bc4025b7a85d17f0fc",
    ),
    "bbr-slow-lossy": ("picoquic", "bbr", mib(6), SLOW_LOSSY, 7,
        "55b1d96bf2aba861fadf7ff711addc42882b6a81629fe484e7c3ec2ae7d9bd94",
    ),
    "ngtcp2-bbr-lossy": ("ngtcp2", "bbr", mib(2), LOSSY, 3,
        "bfd5352cdfa1192ab822907fa4e5cf41f0b8148456f253a8223af45ccef82033",
    ),
}


def run(name):
    stack, cca, file_size, network, seed, expected = GOLDEN[name]
    config = ExperimentConfig(
        stack=stack, cca=cca, file_size=file_size, network=network, seed=seed, trace_cwnd=True
    )
    experiment = Experiment(config, seed=seed)
    states = set()
    cc = experiment.server_cc
    record = cc._record

    def recording(now):
        states.add(cc.state)
        record(now)

    cc._record = recording
    result = experiment.run()
    assert result.completed
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
