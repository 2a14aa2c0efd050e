"""Composable, seeded path impairments (fault injection).

The paper's two headline pathologies — quiche's spurious-loss cwnd rollback
and HyStart++'s late slow-start exit — are both *triggered by loss patterns*,
not by clean queue-overflow drops. This module provides netem-style
impairment stages that can be chained on either direction of the emulated
path, each drawing from its own named RNG stream so that randomness is
independent per repetition and bit-identical between serial, parallel, and
cached executions:

* :func:`iid_loss` — independent per-packet loss;
* :func:`burst_loss` — Gilbert–Elliott two-state burst loss (the loss shape
  that arms quiche's small-loss-burst rollback heuristic);
* :func:`reordering` — probabilistic extra delay that lets later packets
  overtake (produces genuine spurious-loss events: late ACKs for packets
  already declared lost);
* :func:`duplication` — netem-style back-to-back duplicates;
* :func:`rate_flap` — a time-varying link modulator that oscillates the
  bottleneck rate on a fixed schedule (flapping Wi-Fi/LTE-style links).

Specs are plain frozen dataclasses, so they nest into
:class:`~repro.framework.config.NetworkConfig`, hash into
``ExperimentConfig.cache_key()`` via ``dataclasses.asdict`` automatically,
and serialize to JSON. Stages are built per experiment by
:func:`build_impairments`.

Injected drops are counted separately from congestion (queue-overflow)
drops: every stage keeps :class:`ImpairmentStats`, and the experiment
surfaces them as ``ExperimentResult.injected_drops`` /
``ExperimentResult.impairment_stats`` plus optional
``network:injected_drop`` qlog events.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.net.bottleneck import Bottleneck
from repro.net.packet import Datagram, FlowTuple, PacketSink
from repro.sim.engine import Simulator
from repro.units import mbit, ms

KINDS = ("loss", "burst", "reorder", "duplicate", "rate_flap")


@dataclass(frozen=True)
class ImpairmentSpec:
    """Declarative description of one impairment stage.

    One parameterized record covers every kind (rather than a class per
    kind) so specs stay trivially JSON/``asdict``-serializable inside
    ``NetworkConfig`` and participate in ``cache_key()`` with no custom
    hashing. Unused fields stay at their defaults for a given ``kind``.
    """

    kind: str
    #: Per-packet probability: loss rate (``loss``), reorder probability
    #: (``reorder``), duplication probability (``duplicate``), or the loss
    #: rate inside the bad state (``burst``).
    rate: float = 0.0
    #: Gilbert–Elliott transition probabilities (``burst`` only).
    p_enter: float = 0.0
    p_exit: float = 0.0
    #: Residual loss rate in the good state (``burst`` only).
    loss_good: float = 0.0
    #: Extra hold-back applied to reordered packets (``reorder`` only).
    extra_delay_ns: int = 0
    #: Rate-flap schedule (``rate_flap`` only): the bottleneck drops to
    #: ``low_rate_bps`` for ``(1 - duty)`` of every ``period_ns``.
    low_rate_bps: int = 0
    period_ns: int = 0
    duty: float = 0.5

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown impairment kind {self.kind!r}; expected one of {KINDS}")
        for name in ("rate", "p_enter", "p_exit", "loss_good", "duty"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"impairment {self.kind}: {name}={value} outside [0, 1]")
        if self.kind == "burst" and (self.p_enter <= 0.0 or self.p_exit <= 0.0):
            raise ConfigError("burst loss needs p_enter > 0 and p_exit > 0")
        if self.kind == "reorder" and self.extra_delay_ns <= 0:
            raise ConfigError("reordering needs extra_delay_ns > 0")
        if self.kind in ("loss", "duplicate") and self.rate <= 0.0:
            raise ConfigError(f"{self.kind} needs rate > 0")
        if self.kind == "rate_flap":
            if self.period_ns <= 0:
                raise ConfigError("rate_flap needs period_ns > 0")
            if self.low_rate_bps <= 0:
                raise ConfigError("rate_flap needs low_rate_bps > 0")
            if not 0.0 < self.duty < 1.0:
                raise ConfigError("rate_flap duty must be strictly between 0 and 1")

    @property
    def slug(self) -> str:
        """Short label fragment (feeds ``ExperimentConfig.label``)."""
        if self.kind == "loss":
            return f"loss{self.rate:g}"
        if self.kind == "burst":
            return f"ge{self.p_enter:g}-{self.p_exit:g}"
        if self.kind == "reorder":
            return f"reorder{self.rate:g}"
        if self.kind == "duplicate":
            return f"dup{self.rate:g}"
        return f"flap{self.period_ns / 1e6:g}ms"


# -- spec factories ---------------------------------------------------------


def iid_loss(rate: float) -> ImpairmentSpec:
    """Independent per-packet loss (netem ``loss random``)."""
    return ImpairmentSpec(kind="loss", rate=rate)


def burst_loss(
    p_enter: float = 0.003,
    p_exit: float = 0.3,
    loss_bad: float = 1.0,
    loss_good: float = 0.0,
) -> ImpairmentSpec:
    """Gilbert–Elliott burst loss: mean burst ``1/p_exit`` packets, roughly
    every ``1/p_enter`` packets. The defaults dribble 2-5-packet bursts —
    small enough to pass quiche's small-loss rollback threshold."""
    return ImpairmentSpec(
        kind="burst", rate=loss_bad, p_enter=p_enter, p_exit=p_exit, loss_good=loss_good
    )


def reordering(rate: float = 0.01, extra_delay_ns: int = ms(4)) -> ImpairmentSpec:
    """With probability ``rate``, hold a packet back ``extra_delay_ns`` so
    later packets overtake it (netem ``reorder``/``delay``)."""
    return ImpairmentSpec(kind="reorder", rate=rate, extra_delay_ns=extra_delay_ns)


def duplication(rate: float = 0.01) -> ImpairmentSpec:
    """With probability ``rate``, deliver a back-to-back duplicate."""
    return ImpairmentSpec(kind="duplicate", rate=rate)


def rate_flap(
    low_rate_bps: int = mbit(10), period_ns: int = ms(1000), duty: float = 0.5
) -> ImpairmentSpec:
    """Oscillate the bottleneck: nominal rate for ``duty`` of each period,
    ``low_rate_bps`` for the rest (a flapping/time-varying link)."""
    return ImpairmentSpec(
        kind="rate_flap", low_rate_bps=low_rate_bps, period_ns=period_ns, duty=duty
    )


# -- runtime stages ---------------------------------------------------------


@dataclass
class ImpairmentStats:
    seen: int = 0
    injected_drops: int = 0
    reordered: int = 0
    duplicated: int = 0

    def as_dict(self) -> dict:
        return {
            "seen": self.seen,
            "injected_drops": self.injected_drops,
            "reordered": self.reordered,
            "duplicated": self.duplicated,
        }


#: Observer called as ``(event_name, time_ns, data_dict)``: a traced flow
#: wires its qlog trace here for its own datagrams.
EventHook = Callable[[str, int, dict], None]


class ImpairmentStage:
    """Base in-path stage: a :class:`PacketSink` wrapping another sink."""

    def __init__(
        self,
        sim: Simulator,
        spec: ImpairmentSpec,
        sink: PacketSink,
        rng: random.Random,
        name: str = "",
    ):
        self.sim = sim
        self.spec = spec
        self.sink = sink
        self.rng = rng
        self.name = name or spec.kind
        self.stats = ImpairmentStats()
        #: Injected drops keyed by the dropped datagram's flow tuple, so
        #: multi-flow experiments can attribute shared-stage losses per flow.
        self.drops_by_flow: dict = {}
        #: Drop observers keyed by the dropped datagram's flow tuple.
        self.observers: Dict[FlowTuple, EventHook] = {}

    def receive(self, dgram: Datagram) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _drop(self, dgram: Datagram) -> None:
        self.stats.injected_drops += 1
        self.drops_by_flow[dgram.flow] = self.drops_by_flow.get(dgram.flow, 0) + 1
        hook = self.observers.get(dgram.flow)
        if hook is not None:
            hook(
                "network:injected_drop",
                self.sim.now,
                {
                    "stage": self.name,
                    "kind": self.spec.kind,
                    "packet_number": dgram.packet_number,
                    "size": dgram.payload_size,
                },
            )


class IidLossStage(ImpairmentStage):
    def receive(self, dgram: Datagram) -> None:
        self.stats.seen += 1
        if self.rng.random() < self.spec.rate:
            self._drop(dgram)
            return
        self.sink.receive(dgram)


class GilbertElliottStage(ImpairmentStage):
    """Two-state Markov loss: ``good`` (residual loss) / ``bad`` (burst loss).

    The state transitions once per packet *before* the loss draw, so a mean
    burst covers ``1/p_exit`` packets and bursts start roughly every
    ``1/p_enter`` packets.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bad = False
        self.bursts_entered = 0

    def receive(self, dgram: Datagram) -> None:
        self.stats.seen += 1
        if self.bad:
            if self.rng.random() < self.spec.p_exit:
                self.bad = False
        elif self.rng.random() < self.spec.p_enter:
            self.bad = True
            self.bursts_entered += 1
        loss = self.spec.rate if self.bad else self.spec.loss_good
        if loss > 0.0 and self.rng.random() < loss:
            self._drop(dgram)
            return
        self.sink.receive(dgram)


class ReorderStage(ImpairmentStage):
    def receive(self, dgram: Datagram) -> None:
        self.stats.seen += 1
        if self.rng.random() < self.spec.rate:
            self.stats.reordered += 1
            self.sim.schedule(self.spec.extra_delay_ns, self.sink.receive, dgram)
            return
        self.sink.receive(dgram)


class DuplicateStage(ImpairmentStage):
    def receive(self, dgram: Datagram) -> None:
        self.stats.seen += 1
        self.sink.receive(dgram)
        if self.rng.random() < self.spec.rate:
            self.stats.duplicated += 1
            # A distinct object with identical ids: both copies are "the same
            # packet" to captures and the receiving stack, but wire devices
            # must not see one object twice (they mutate per-hop state).
            self.sim.call_soon(self.sink.receive, dgram.copy())


class LinkFlapper:
    """Time-varying link modulator: toggles a bottleneck between its nominal
    rate and ``spec.low_rate_bps`` on a fixed schedule.

    Not a packet stage — it rewrites the shaper's drain rate via
    :meth:`Bottleneck.set_rate` at phase boundaries, so queueing and drop
    behaviour react exactly as they would to a real capacity change. The
    schedule is deterministic (no RNG): phase ``k`` starts at
    ``k * period_ns``, with the nominal rate for ``duty`` of each period.
    """

    def __init__(self, sim: Simulator, bottleneck: Bottleneck, spec: ImpairmentSpec):
        self.sim = sim
        self.bottleneck = bottleneck
        self.spec = spec
        self.nominal_rate_bps = bottleneck.rate_bps
        self.transitions = 0
        self.low = False
        high_ns = int(spec.period_ns * spec.duty)
        self._high_ns = max(high_ns, 1)
        self._low_ns = max(spec.period_ns - high_ns, 1)
        sim.schedule(self._high_ns, self._toggle)

    def _toggle(self) -> None:
        self.low = not self.low
        self.transitions += 1
        rate = self.spec.low_rate_bps if self.low else self.nominal_rate_bps
        self.bottleneck.set_rate(rate)
        self.sim.schedule(self._low_ns if self.low else self._high_ns, self._toggle)


_STAGE_CLASSES = {
    "loss": IidLossStage,
    "burst": GilbertElliottStage,
    "reorder": ReorderStage,
    "duplicate": DuplicateStage,
}


def build_impairments(
    specs: Sequence[ImpairmentSpec],
    sim: Simulator,
    sink: PacketSink,
    rng_for: Callable[[str], random.Random],
    direction: str,
    bottleneck: Optional[Bottleneck] = None,
) -> Tuple[PacketSink, List[ImpairmentStage], List[LinkFlapper]]:
    """Instantiate ``specs`` as a chain ending in ``sink``.

    Returns ``(head, stages, flappers)`` where ``head`` is the sink the
    upstream device should feed (== ``sink`` when no in-path stages exist).
    Packets traverse stages in spec order. Each stage draws from its own
    named stream — ``impair-{direction}-{index}-{kind}`` — so adding or
    reordering one stage never perturbs another's randomness, and per-rep
    registry forking keeps repetitions independent.

    ``rate_flap`` specs do not join the packet chain; they attach a
    :class:`LinkFlapper` to ``bottleneck`` (which must be a rate-settable
    :class:`Bottleneck`; config validation enforces this).
    """
    stages: List[ImpairmentStage] = []
    flappers: List[LinkFlapper] = []
    head: PacketSink = sink
    for index, spec in reversed(list(enumerate(specs))):
        spec.validate()
        if spec.kind == "rate_flap":
            if bottleneck is None:
                raise ConfigError(
                    f"rate_flap impairment on the {direction} path has no bottleneck to modulate"
                )
            flappers.append(LinkFlapper(sim, bottleneck, spec))
            continue
        name = f"{direction}/{index}/{spec.kind}"
        stage = _STAGE_CLASSES[spec.kind](sim, spec, head, rng_for(name), name=name)
        stages.append(stage)
        head = stage
    stages.reverse()
    flappers.reverse()
    return head, stages, flappers
