"""Queueing disciplines.

Each qdisc accepts datagrams via ``enqueue`` and pushes them to its ``sink``
(normally the GSO segmenter) when its scheduling logic releases them.
``make_qdisc`` builds the qdisc an experiment config names (one of
``factory.QDISCS``). :class:`NetemQdisc` is built directly: it is only a
multi-flow run's per-flow RTT stage. The paper's token bucket is the
bottleneck itself (:class:`repro.net.bottleneck.Bottleneck`).
"""

from repro.kernel.qdisc.base import Qdisc, QdiscStats
from repro.kernel.qdisc.pfifo_fast import PfifoFast
from repro.kernel.qdisc.fq import FqQdisc
from repro.kernel.qdisc.etf import EtfQdisc
from repro.kernel.qdisc.netem import NetemQdisc
from repro.kernel.qdisc.factory import make_qdisc

__all__ = [
    "Qdisc",
    "QdiscStats",
    "PfifoFast",
    "FqQdisc",
    "EtfQdisc",
    "NetemQdisc",
    "make_qdisc",
]
