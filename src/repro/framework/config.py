"""Experiment configuration.

Defaults mirror the paper's setup: 1 Gbit/s access links, an emulated
40 Mbit/s bottleneck with 40 ms minimum RTT, a bottleneck buffer of two
bandwidth-delay products, a 100 MiB download (scaled down by default for
simulation speed — see EXPERIMENTS.md) repeated N times.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property
from typing import Any, Dict, Optional, Tuple

from repro.cc.factory import CCA_NAMES
from repro.errors import ConfigError
from repro.kernel.qdisc.factory import QDISCS
from repro.net.impairments import ImpairmentSpec
from repro.units import SEC, gbit, mbit, mib, ms, seconds, us

STACKS = ("quiche", "picoquic", "ngtcp2", "tcp")
GSO_MODES = ("off", "on", "paced")


@dataclass(frozen=True)
class NetworkConfig:
    link_rate_bps: int = gbit(1)
    bottleneck_rate_bps: int = mbit(40)
    one_way_delay_ns: int = ms(20)
    buffer_bdp_multiplier: float = 2.0
    tbf_burst_bytes: int = 5_000
    #: Bottleneck model: "tbf" (the paper's wired shaper) or "wifi" (channel
    #: access with frame aggregation, for the Manzoor et al. scenario).
    bottleneck: str = "tbf"
    wifi_phy_rate_bps: int = mbit(60)
    wifi_access_overhead_ns: int = us(400)
    wifi_max_aggregate: int = 32
    #: Fault-injection stages on the data (server→client) path, applied
    #: between the capture tap and the bottleneck, in order. Build specs with
    #: the :mod:`repro.net.impairments` factories (``iid_loss``,
    #: ``burst_loss``, ``reordering``, ``duplication``, ``rate_flap``).
    forward_impairments: Tuple[ImpairmentSpec, ...] = ()
    #: Fault-injection stages on the ACK (client→server) path.
    reverse_impairments: Tuple[ImpairmentSpec, ...] = ()

    def validate(self) -> None:
        if self.bottleneck not in ("tbf", "wifi"):
            raise ConfigError(
                f"unknown bottleneck {self.bottleneck!r}; expected 'tbf' or 'wifi'"
            )
        for rate_field in ("link_rate_bps", "bottleneck_rate_bps", "wifi_phy_rate_bps"):
            if getattr(self, rate_field) <= 0:
                raise ConfigError(
                    f"{rate_field} must be positive, got {getattr(self, rate_field)}"
                )
        for delay_field in ("one_way_delay_ns", "wifi_access_overhead_ns"):
            if getattr(self, delay_field) < 0:
                raise ConfigError(
                    f"{delay_field} must be non-negative, got {getattr(self, delay_field)}"
                )
        if self.buffer_bdp_multiplier <= 0:
            raise ConfigError(
                f"buffer_bdp_multiplier must be positive, got {self.buffer_bdp_multiplier}"
            )
        if self.tbf_burst_bytes <= 0:
            raise ConfigError(f"tbf_burst_bytes must be positive, got {self.tbf_burst_bytes}")
        if self.wifi_max_aggregate < 1:
            raise ConfigError(f"wifi_max_aggregate must be >= 1, got {self.wifi_max_aggregate}")
        for spec in (*self.forward_impairments, *self.reverse_impairments):
            spec.validate()
        for spec in self.reverse_impairments:
            if spec.kind == "rate_flap":
                raise ConfigError("rate_flap modulates the bottleneck; forward path only")
        if self.bottleneck == "wifi" and any(
            spec.kind == "rate_flap" for spec in self.forward_impairments
        ):
            raise ConfigError("rate_flap requires the tbf bottleneck model")

    @property
    def min_rtt_ns(self) -> int:
        return 2 * self.one_way_delay_ns

    @property
    def bdp_bytes(self) -> int:
        return self.bottleneck_rate_bps * self.min_rtt_ns // (8 * SEC)

    @property
    def buffer_bytes(self) -> int:
        return int(self.bdp_bytes * self.buffer_bdp_multiplier)


class CanonicalForm:
    """Canonical encodings of a frozen config dataclass, computed once per
    *object*.

    A sweep needs a config's sorted-JSON form and the hashes over it several
    times per repetition (result fingerprint, cache entry key, store row key,
    artifact payload); ``dataclasses.asdict`` deep-copies every nested field
    each time. The config and everything nested in it is frozen, so the
    encodings cannot go stale. They are memoized on the instance, never by
    value: ``2`` and ``2.0`` compare and hash equal but encode differently,
    so equal configs may not share an encoding. ``dataclasses.replace``
    builds a new object (no memo carried over), and the memo is dropped when
    pickling, so cache entries and worker payloads hold fields only.
    """

    @cached_property
    def _declared_json(self) -> str:
        return json.dumps(asdict(self))

    @cached_property
    def canonical_json(self) -> str:
        """``json.dumps(asdict(self), sort_keys=True)``: the form every
        content hash and the result fingerprint are taken over."""
        return json.dumps(json.loads(self._declared_json), sort_keys=True)

    def canonical_dict(self) -> Dict[str, Any]:
        """``asdict(self)`` in the JSON data model (tuples as lists), field
        order kept; a fresh dict per call, so callers may keep or change it."""
        return json.loads(self._declared_json)

    @cached_property
    def per_rep(self) -> "CanonicalForm":
        """This config with ``repetitions`` normalized to 1: the identity of
        one repetition, shared by sweeps of any length."""
        return replace(self, repetitions=1)

    def cache_key(self) -> str:
        """Stable content hash over *all* fields (nested configs included).

        Every field participates automatically via ``dataclasses.asdict``, so
        adding a field can never silently alias two different configurations
        (the failure mode of hand-built label/field-list keys). The hash is a
        plain sha256 over the sorted-JSON form — stable across processes and
        sessions, independent of ``PYTHONHASHSEED``.
        """
        return self._cache_key

    @cached_property
    def _cache_key(self) -> str:
        return hashlib.sha256(self.canonical_json.encode()).hexdigest()

    def __getstate__(self) -> Dict[str, Any]:
        # Fields only, in ``__dict__`` order: pickles are byte-identical to
        # those of a config that never computed an encoding.
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class ExperimentConfig(CanonicalForm):
    stack: str = "quiche"
    cca: str = "cubic"
    qdisc: str = "none"
    gso: str = "off"
    #: Segments per GSO buffer (the paper discusses the buffer-size trade-off
    #: between syscall savings and burstiness).
    gso_segments: int = 10
    #: Force a pacing mode instead of the stack's own ("none" reproduces the
    #: pacing-disabled ablation of Manzoor et al. discussed in related work).
    pacing_override: Optional[str] = None
    #: Override the client's ACK policy (the ACK-frequency discussion of
    #: Section 2: fewer ACKs weaken ACK-clocking and cause bursts without
    #: pacing). None keeps the stack's own client behaviour.
    client_ack_threshold: Optional[int] = None
    client_max_ack_delay_ns: Optional[int] = None
    #: Override the leaky-bucket depth in packets (picoquic's burst size).
    bucket_packets: Optional[int] = None
    #: None = the stack's stock behaviour (quiche: rollback enabled).
    #: False models the paper's "SF" patch.
    spurious_rollback: Optional[bool] = None
    file_size: int = mib(8)
    #: Parallel objects (HTTP/3 streams) the download is split across; the
    #: paper uses a single object, web workloads use many.
    objects: int = 1
    repetitions: int = 5
    seed: int = 1
    etf_delta_ns: int = us(200)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    max_sim_time_ns: int = seconds(180)
    trace_cwnd: bool = False
    trace_queue: bool = False
    #: Attach a qlog-style event trace to the server connection.
    qlog: bool = False
    #: Negotiate ECN end-to-end and enable CE marking at the bottleneck
    #: (extension: congestion signals without loss).
    ecn: bool = False

    def validate(self) -> None:
        if self.stack not in STACKS:
            raise ConfigError(f"unknown stack {self.stack!r}; expected one of {STACKS}")
        if self.cca not in CCA_NAMES:
            raise ConfigError(
                f"unknown congestion controller {self.cca!r}; expected one of {CCA_NAMES}"
            )
        if self.qdisc not in QDISCS:
            raise ConfigError(f"unknown qdisc {self.qdisc!r}; expected one of {QDISCS}")
        if self.gso not in GSO_MODES:
            raise ConfigError(f"unknown gso mode {self.gso!r}; expected one of {GSO_MODES}")
        if self.file_size <= 0:
            raise ConfigError(f"file_size must be positive, got {self.file_size}")
        if self.repetitions <= 0:
            raise ConfigError(f"repetitions must be positive, got {self.repetitions}")
        if self.objects <= 0:
            raise ConfigError(f"objects must be positive, got {self.objects}")
        if self.gso_segments < 1:
            raise ConfigError(f"gso_segments must be >= 1, got {self.gso_segments}")
        if self.etf_delta_ns < 0:
            raise ConfigError(f"etf_delta_ns must be non-negative, got {self.etf_delta_ns}")
        if self.max_sim_time_ns <= 0:
            raise ConfigError(f"max_sim_time_ns must be positive, got {self.max_sim_time_ns}")
        if self.client_ack_threshold is not None and self.client_ack_threshold < 1:
            raise ConfigError(
                f"client_ack_threshold must be >= 1, got {self.client_ack_threshold}"
            )
        if self.bucket_packets is not None and self.bucket_packets < 1:
            raise ConfigError(f"bucket_packets must be >= 1, got {self.bucket_packets}")
        if self.objects > 1 and self.stack == "tcp":
            raise ConfigError("multi-object downloads are QUIC-only here")
        if self.stack == "tcp" and self.gso != "off":
            raise ConfigError("GSO modes only apply to QUIC stacks here")
        self.network.validate()

    @property
    def label(self) -> str:
        parts = [self.stack, self.cca]
        if self.qdisc != "none":
            parts.append(self.qdisc)
        if self.gso != "off":
            parts.append(f"gso-{self.gso}")
        if self.spurious_rollback is False:
            parts.append("sf")
        parts.extend(spec.slug for spec in self.network.forward_impairments)
        parts.extend(f"r-{spec.slug}" for spec in self.network.reverse_impairments)
        return "/".join(parts)

    def scaled(self, file_size: int, repetitions: Optional[int] = None) -> "ExperimentConfig":
        return replace(
            self,
            file_size=file_size,
            repetitions=repetitions if repetitions is not None else self.repetitions,
        )
