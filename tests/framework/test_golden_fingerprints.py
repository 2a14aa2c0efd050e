"""Golden fingerprints: the hot-path overhaul changes *nothing* observable.

The engine fast path, columnar capture, lazy qlog, and every micro-
optimization in the send/receive path must be invisible in the results: the
hashes below were recorded on the pre-overhaul implementation (commit
0460930) and every future engine change must keep reproducing them
bit-for-bit. The matrix deliberately crosses stacks (all four QUIC profiles
plus TCP), qdiscs (fq, etf), CCAs (cubic, bbr), GSO, loss impairment, and
full observability (qlog + cwnd/queue traces), so a determinism break in any
optimized layer trips at least one entry.

Each case holds three digests. The first is the behaviour digest
``fingerprint()`` takes (seed and outputs, the frames folded at the tap). The
second is the value recorded before the tap folded the frames, and the third
the value recorded before the fingerprint stopped covering the config, each
reproduced from the same run by its oracle
(:func:`tests.framework.test_fingerprint_encoding.behaviour_fingerprint`,
:func:`~tests.framework.test_fingerprint_encoding.old_fingerprint`): together
they prove the re-records moved no behaviour. The old column is deleted by
the first change to a config field.

A second set of tests runs part of the matrix through the sweep runner's
serial, parallel, and warm-cache paths: all three must reproduce the same
golden value, pinning the "optimized engine == seed engine, regardless of
execution mode" claim end to end.
"""

from __future__ import annotations

import pytest

from repro.framework.cache import ResultCache
from repro.framework.config import ExperimentConfig, NetworkConfig
from repro.framework.experiment import run_experiment
from repro.framework.sweep import SweepRunner
from repro.net.impairments import duplication, iid_loss, reordering
from repro.units import kib
from tests.framework.test_fingerprint_encoding import behaviour_fingerprint, old_fingerprint

#: name -> (config, seed, fingerprint, digest before the tap's fold,
#: config-inclusive digest recorded on the seed implementation).
GOLDEN = {
    "quiche-fq": (
        ExperimentConfig(stack="quiche", qdisc="fq", file_size=kib(512)),
        1,
        "2cf9b2f1f3b701afaedee7b4296b250af26a3979f2089a0e37370dc599021be0",
        "3f51888aa08a81b7f7b2e3161175f6bd23574546784ff6b811de4fdf2261e9aa",
        "329129614e15d2c7c4d59a2e47a5bd54f9867e77fffa4c3883bdf6f77ee09bde",
    ),
    "quiche-gso": (
        ExperimentConfig(stack="quiche", gso="on", file_size=kib(512)),
        2,
        "aec3f9bf87b222cb3f7e42655e7f5e64f25caccb3050fbe640e4f2aa4ccb46e8",
        "d32aa7f8da86895d2ae6728f44027800fdbe238ad734d3e529e68dbe76228fa4",
        "993c5fb7e9fe941016508070f082adb00d7febe3a9cf262d7619b693392e5f1d",
    ),
    "ngtcp2": (
        ExperimentConfig(stack="ngtcp2", file_size=kib(512)),
        1,
        "4f03800723225295f7c2f54760253d2ad95cbe5ac14588ba1a6e652717598289",
        "da4544c9292d91b9696caff6d012417015e41ec39bddef6a833b10530d4f1e1a",
        "b11d9b8a928211d3012b7e1ef889be35a218f7e8f3032ad7f1b0027d0fefb8ce",
    ),
    "picoquic": (
        ExperimentConfig(stack="picoquic", file_size=kib(512)),
        2,
        "ad267ebc1fe6dadbc056ee872f83f9daf13e2a0b24474acd280a786053392c24",
        "f8e076439577bf71e27c83f32e66493bca1b58289ad921268b5ffb5d7230572b",
        "c972eb1ec642a2f50911a8d90cfdac5049f4ff9ad76ca3233dfd44d8a7caa82d",
    ),
    "tcp": (
        ExperimentConfig(stack="tcp", file_size=kib(512)),
        1,
        "1e66c0dd905783d5acd238c7534f458baad9e41ea2728d7ea758a1c8bfec145c",
        "2f69e39367d689599c4e4bc1c5b2df00ea9a2e33e681f3bd2dc243860e9ac50f",
        "1d196e259f9de9cbe58aacb53133dd6bc146854fd42c03df96a8cb12204c087c",
    ),
    "quiche-bbr-qlog": (
        ExperimentConfig(
            stack="quiche",
            cca="bbr",
            qlog=True,
            trace_cwnd=True,
            trace_queue=True,
            file_size=kib(256),
        ),
        3,
        "c1d828c2fc98167eb4e9525b39772d636a1fd5bab59481445156d1f22cc94485",
        "79aefeaf2c124c222cdc613bf9d40b02ca3027b8d4273f9b40bd48a57b1b8300",
        "2c49ed061a90b7859f534b4e9caa1edde4279aa9d73ebc257550ede0cc1a57f9",
    ),
    "quiche-loss": (
        ExperimentConfig(
            stack="quiche",
            file_size=kib(256),
            network=NetworkConfig(forward_impairments=(iid_loss(0.01),)),
        ),
        1,
        "469de49b0e9dc4b72c50289efc70cfc393944dd01d0c5e9caba45993187437d5",
        "a4600e2391f6519eeff6fb86957e22e62a47ef62f42a00811b4d245b4ea35ef2",
        "358715bfc36f3fb548bb0aeca7f2791db03e1349e2e154104b1820dfe1ab716f",
    ),
    "quiche-etf": (
        ExperimentConfig(stack="quiche", qdisc="etf", file_size=kib(256)),
        1,
        "72036bea19be5f986f26e90799c9e7f6f7f271c9a37a6404e25894dc52b24777",
        "077ac0978df6740de54e6f1bf97e990d69410222a16918339ddf148471be2f08",
        "e1494ecbee06a01bd3ef64ea534c1fff8f08c7eedb479e7635152ae78074d135",
    ),
    # The ACK path's impairments: recorded while the reverse path still had
    # its own delay stage behind them, so they pin the fold of that delay
    # into the reverse link's propagation.
    "quiche-rev-impaired": (
        ExperimentConfig(
            stack="quiche",
            file_size=kib(256),
            network=NetworkConfig(
                reverse_impairments=(iid_loss(0.02), reordering(), duplication(0.02))
            ),
        ),
        1,
        "3ee4a8c116334126fce8922cf8e512e7f7017dd98bb8f82939aab16813938460",
        "5c78d0831937602252e2c1e273fdeccda731edfd65dc0bab381ab032d6f48b34",
        "143bcac0f2b806cb0d87ecdab4468c245eea4d2fb3591a0416972566633658de",
    ),
    "tcp-rev-reorder": (
        ExperimentConfig(
            stack="tcp",
            file_size=kib(512),
            network=NetworkConfig(reverse_impairments=(reordering(),)),
        ),
        1,
        "968154f6a4f44ccd739c143bb60d47cdfa11e125be55cb72441cd567db360ea1",
        "afce7587e26b0eb1363f3f785121fa356f41355d6d80a56b8c48ad389c991991",
        "ff4e4e96640f9b90fa042cab426ab9f72e1e5d98602a7cc3a857729ee1fcee8e",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_fingerprint(name):
    config, seed, expected, before, old = GOLDEN[name]
    result = run_experiment(config, seed=seed)
    assert result.fingerprint() == expected
    assert behaviour_fingerprint(result) == before
    assert old_fingerprint(result) == old


#: Sweep-runner slice of the matrix: config.seed chosen so repetition 0's
#: derived seed reproduces the direct-run golden is *not* assumed — instead
#: the three execution modes are pinned against each other and against a
#: serial run recorded below.
SWEEP_GRID = {
    "quiche-loss": ExperimentConfig(
        stack="quiche",
        file_size=kib(256),
        repetitions=2,
        seed=1,
        network=NetworkConfig(forward_impairments=(iid_loss(0.01),)),
    ),
    "quiche-etf": ExperimentConfig(
        stack="quiche", qdisc="etf", file_size=kib(256), repetitions=2, seed=1
    ),
}


def _fingerprints(summaries):
    return {
        name: [r.fingerprint() for r in summary.results]
        for name, summary in summaries.items()
    }


def test_sweep_modes_reproduce_identical_fingerprints(tmp_path):
    serial = SweepRunner(workers=1).run(SWEEP_GRID)
    parallel = SweepRunner(workers=4).run(SWEEP_GRID)
    cache = ResultCache(tmp_path / "cache")
    cold = SweepRunner(workers=2, cache=cache).run(SWEEP_GRID)
    warm = SweepRunner(workers=1, cache=cache).run(SWEEP_GRID)
    assert cache.stats.hits == 4
    assert (
        _fingerprints(serial)
        == _fingerprints(parallel)
        == _fingerprints(cold)
        == _fingerprints(warm)
    )


def test_every_backend_reproduces_the_golden_sweep_fingerprints():
    """Execution backends are invisible in the golden matrix: inprocess,
    pool, spawn, and forkserver all reproduce the same fingerprints."""
    from repro.framework.executors import BACKENDS

    prints = {
        backend: _fingerprints(SweepRunner(workers=2, backend=backend).run(SWEEP_GRID))
        for backend in BACKENDS
    }
    reference = prints["inprocess"]
    assert all(value == reference for value in prints.values()), prints
