"""Flow churn and its teardown invariant.

Churn (teardown on departure) is a *different deterministic workload*, not
an engine optimization: cutting post-completion traffic perturbs the shared
queue, so its fingerprint legitimately differs from the no-churn run — but
it must be a pure function of (config, seed), identical across execution
modes (serial, swept, cache-resumed). Teardown must also be complete: a
departed flow admits nothing more to the calendar, which
:func:`test_departed_flows_admit_nothing` checks by watching the plain
engine from outside.

Each golden has three digests: ``GOLDEN_*`` is the behaviour digest
``fingerprint()`` takes (seed and outputs, each flow's frames folded at the
tap), ``GOLDEN_*_COUNTERS`` the one before the fold (counters only, no frame)
and ``GOLDEN_*_OLD`` the config-inclusive one before that, each reproduced
from the same run by its oracle
(:func:`tests.framework.test_fingerprint_encoding.behaviour_fingerprint`,
:func:`~tests.framework.test_fingerprint_encoding.old_fingerprint`); the
``_OLD`` values are deleted by the first change to a config field. The
latter two were re-recorded once when a one-flow experiment became the run at N = 1: flow 0
took the single-flow ports (443/40000) and RNG stream names and starts in
the run's own call at t = 0. With flow 0 given back its old identity
(``flow0-*`` streams, 4433/50000, a scheduled start) every previous value
reproduces.
"""

from __future__ import annotations

from repro.framework.cache import ResultCache
from repro.framework.multiflow import MultiFlowExperiment
from repro.framework.population import (
    FlowPopulation,
    PopulationConfig,
    aggregate_population,
    run_population,
)
from repro.framework.scenarios import population_sweep
from repro.framework.sweep import SweepRunner
from repro.net.packet import Datagram
from repro.sim.engine import Simulator
from repro.units import kib, ms, seconds
from tests.framework.test_fingerprint_encoding import behaviour_fingerprint, old_fingerprint

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

#: The plain run; every engine change must keep reproducing it bit-for-bit
#: (the population-scale golden).
GOLDEN_PLAIN = "07316582412567e19615c47c9244c27bbd9ce557bb02fb776f58edfaaf2d2eda"
GOLDEN_PLAIN_COUNTERS = "189f44063861d00f5dbc2dd7cd115d4967ce57c4ef2d6c644af4ae10df613e9e"
GOLDEN_PLAIN_OLD = "ecd8711e9ed4de1b07669dc23a11f836b5b1cb3a93956223cad74c985492228e"
#: Pins churn determinism.
GOLDEN_CHURN = "d70fee5ffe1adea5453e5e852b0f0e0eb2d6644ea4f6e8e6c41ac7c8baa9b0d7"
GOLDEN_CHURN_COUNTERS = "1f945a351b05351182c665fb0f952ce1fb3c1b35e4c1f4ada4cdfa50c1bc25b6"
GOLDEN_CHURN_OLD = "cdf5d3280305782e31aed79f9e4a8574f0c232776aa88ad5e0592e812e43c00a"
#: 60 flows of the 200/2000-flow mixed population with churn (the CI smoke
#: scale).
GOLDEN_CHURN_60 = "56a7eebd058645495196fd846ddb154c61c0eb8fc24e0b704b63abae3b905f9d"
GOLDEN_CHURN_60_COUNTERS = "5e38d10e8942df9fe58fa53d156cfd15394d093788c56a5bd6a87bb905a9ec6a"
GOLDEN_CHURN_60_OLD = "a766f0e2b64c1322e57dce71144d917c87e656f93346f7012712944744bc8a63"


def _config(**overrides) -> PopulationConfig:
    return PopulationConfig(**{**_BASE, **overrides})


def test_population_golden_fingerprint():
    result = run_population(_config())
    assert result.fingerprint() == GOLDEN_PLAIN
    assert behaviour_fingerprint(result) == GOLDEN_PLAIN_COUNTERS
    assert old_fingerprint(result) == GOLDEN_PLAIN_OLD


def test_churn_golden_fingerprint():
    result = run_population(_config(churn=True))
    assert result.fingerprint() == GOLDEN_CHURN
    assert behaviour_fingerprint(result) == GOLDEN_CHURN_COUNTERS
    assert old_fingerprint(result) == GOLDEN_CHURN_OLD
    assert result.completed_count == 30
    # Teardown absorbed stragglers rather than mis-routing them.
    assert result.multi.drained > 0
    assert result.multi.unrouted == 0


def test_sixty_flow_churn_golden_fingerprint():
    grid = population_sweep(60, file_size=kib(64), max_sim_time_ns=seconds(300), churn=True)
    result = run_population(grid["mixed"], seed=1)
    assert result.fingerprint() == GOLDEN_CHURN_60
    assert behaviour_fingerprint(result) == GOLDEN_CHURN_60_COUNTERS
    assert old_fingerprint(result) == GOLDEN_CHURN_60_OLD
    assert result.completed_count == 60


def test_drained_zero_without_churn():
    result = run_population(_config())
    assert result.multi.drained == 0


def test_churn_cache_key_stable_and_distinct():
    """The key is stable across constructions, and enabling churn changes it."""
    assert _config().cache_key() == _config().cache_key()
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


def test_retired_flows_leave_no_random_stream():
    """A retired flow never draws again: the registry forgets its streams."""
    config = _config(flows=20, churn=True)
    experiment = MultiFlowExperiment(
        FlowPopulation(config).specs(config.seed),
        network=config.network,
        seed=config.seed,
        max_sim_time_ns=config.max_sim_time_ns,
        capture_records=False,
        churn=True,
    )
    held = set(experiment.rngs._streams)
    quic = [flow for flow in experiment.flows if flow.server is not None]
    assert quic and all(held & set(flow.streams) for flow in quic)
    experiment.run()
    retired = [flow for flow in experiment.flows if flow.frozen is not None]
    assert len(retired) == 20
    assert not set(experiment.rngs._streams) & {n for f in retired for n in f.streams}


def test_departed_flows_admit_nothing(monkeypatch):
    """Once a flow departs, no component of it puts another entry on the
    calendar, and no other entry carries one of its datagrams.

    Every admission goes through the instance's ``sim._admit``, except a
    hand-off that ``run()`` parks, which only ``Simulator.call_soon`` sees;
    so both are wrapped, ``call_soon`` at class level before the experiment
    is built. An entry is keyed by its ``seq`` (a hand-off that reaches
    ``_admit`` too counts once). An entry whose first argument is a
    ``Datagram`` belongs to the flow whose 4-tuple ``dgram.flow`` carries: a
    socket's send is an entry of its first hop, which for a client is the
    shared reverse link. Any other entry belongs to the flow that owns its
    callback's bound ``self``. The components stay referenced here, so no
    ``id()`` is reused after teardown drops them.
    """
    config = _config(churn=True)
    flow_of = {}  # id(component) or 4-tuple -> flow index
    components = []
    departed = set()
    admitted_by = set()  # component classes seen admitting for some flow
    late = {}  # seq -> (flow index, component class), admitted after departure

    def note(seq, fn, args):
        owner = getattr(fn.fn if args is None else fn, "__self__", None)
        if args and isinstance(args[0], Datagram):
            index = flow_of.get(args[0].flow)
        else:
            index = flow_of.get(id(owner))
        if index is not None:
            admitted_by.add(type(owner).__name__)
            if index in departed:
                late[seq] = (index, type(owner).__name__)

    plain_call_soon = Simulator.call_soon

    def call_soon(sim, fn, *args):
        note(sim._seq, fn, args)
        plain_call_soon(sim, fn, *args)

    monkeypatch.setattr(Simulator, "call_soon", call_soon)
    experiment = MultiFlowExperiment(
        FlowPopulation(config).specs(config.seed),
        network=config.network,
        seed=config.seed,
        max_sim_time_ns=config.max_sim_time_ns,
        capture_records=config.capture_records,
        churn=config.churn,
    )
    for flow in experiment.flows:
        for component in vars(flow).values():
            if component is not None:
                components.append(component)
                flow_of[id(component)] = flow.index
        for sock in (flow.client_sock, flow.server_sock):
            flow_of[sock.flow] = flow.index

    sim = experiment.sim
    plain_admit = sim._admit

    def admit(entry):
        note(entry[1], entry[2], entry[3])
        plain_admit(entry)

    sim._admit = admit
    plain_retire = experiment._retire

    def retire(flow):
        plain_retire(flow)
        departed.add(flow.index)

    experiment._retire = retire
    result = aggregate_population(config, config.seed, experiment.run())

    assert departed == set(range(30))
    # Link: the client sockets' sends, entries of the shared reverse link;
    # PortDemux: the shared paths' deliveries.
    assert {"Link", "PortDemux", "ServerDriver", "ClientDriver", "TcpSender"} <= admitted_by
    assert late == {}
    assert result.fingerprint() == GOLDEN_CHURN  # the hooks only watch
