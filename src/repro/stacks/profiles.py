"""Concrete library profiles.

Each profile encodes the documented pacing mechanism of one stack plus the
behavioural calibrations listed in DESIGN.md ("Behavioural calibrations").
:data:`PROFILES` holds one profile per stack, :data:`CCA_QUIRKS` what a CCA
changes in it (picoquic arms high-resolution timers only for BBR; ngtcp2's
BBR example runs with larger windows), and :data:`PARAMS` the profile fields
a configuration may override by name. ``profile_for(stack, cca, params)``
applies the quirks, then the params.
"""

from __future__ import annotations

from dataclasses import fields, replace
from typing import Any, Dict, Tuple

from repro.cc.bbr import NGTCP2_BBR_PARAMS
from repro.errors import ConfigError
from repro.sim.clock import JitterModel, TimerModel
from repro.stacks.base import PACING_MODES, StackProfile
from repro.units import kib, mib, ms, us

STACK_NAMES = ("quiche", "picoquic", "ngtcp2")

#: quiche's event loop (mio/tokio): moderate wake-up latency whose jitter sets
#: how many ACK arrivals coalesce into one send batch (baseline trains 6-20).
_QUICHE_TIMER = TimerModel(
    overhead_ns=us(5), jitter=JitterModel(median_ns=us(150), sigma=1.2)
)

#: picoquic's packet loop arms fine-grained timers (it is the paper's example
#: of precise user-space pacing with BBR).
_PICOQUIC_FINE_TIMER = TimerModel(
    overhead_ns=us(1), jitter=JitterModel(median_ns=us(8), sigma=0.5)
)

#: ngtcp2's example server: epoll loop whose timer quantization makes roughly
#: every other pacing wake-up release two packets back-to-back (the ~50 %
#: back-to-back share of Figure 2).
_NGTCP2_TIMER = TimerModel(
    granularity_ns=us(800), overhead_ns=us(2), jitter=JitterModel(median_ns=us(25), sigma=0.6)
)

PROFILES: Dict[str, StackProfile] = {
    # Cloudflare quiche: SO_TXTIME stamping, kernel-delegated pacing. Stock
    # quiche rolls cwnd back after spurious losses; the paper's "SF" patch
    # turns that off.
    "quiche": StackProfile(
        name="quiche",
        pacing="txtime",
        timer_model=_QUICHE_TIMER,
        send_batch=16,
        recv_conn_window=mib(12),
        recv_stream_window=mib(6),
        spurious_rollback=True,
    ),
    # picoquic: leaky-bucket pacing driven entirely by application timers.
    # Its example client implements the ACK-frequency extension (ACKs on the
    # delay timer only, roughly every RTT/4 = 10 ms here). Each large ACK
    # frees a window of packets at once; the full leaky bucket releases the
    # first 16-17 back-to-back, the rest drain at the pacing rate, then the
    # link idles until the next ACK — the Section 4.1 burst pattern for
    # loss-based CCAs.
    "picoquic": StackProfile(
        name="picoquic",
        pacing="leaky_bucket",
        timer_model=_PICOQUIC_FINE_TIMER,
        send_batch=1,
        recv_conn_window=mib(12),
        recv_stream_window=mib(6),
        bucket_packets=16,
        pacing_gain=1.0,
        client_ack_threshold=1_000_000,
        client_max_ack_delay_ns=ms(10),
    ),
    # ngtcp2: app-enforced interval pacing; fixed example-app flow windows.
    # The fixed (non-autotuned) connection window is the DESIGN.md
    # calibration for the paper's ~16 Mbit/s ngtcp2 baseline goodput.
    "ngtcp2": StackProfile(
        name="ngtcp2",
        pacing="app_interval",
        timer_model=_NGTCP2_TIMER,
        send_batch=1,
        recv_conn_window=kib(160),
        recv_stream_window=kib(160),
        fc_autotune=False,
        bbr_params=NGTCP2_BBR_PARAMS,
    ),
}

#: What a (stack, CCA) pair changes in the stack's profile.
CCA_QUIRKS: Dict[Tuple[str, str], Dict[str, Any]] = {
    # BBR paces from its bandwidth model with only a tiny burst allowance,
    # so banked ACK-clock credit never turns into bursts.
    ("picoquic", "bbr"): {"bucket_packets": 2},
    ("picoquic", "bbr2"): {"bucket_packets": 2},
    # ngtcp2's BBR example runs with ample flow-control credit, so its
    # aggressive variant (high gain, no drain, loss-blind) keeps the
    # bottleneck queue overfull — the paper's order-of-magnitude loss
    # increase.
    ("ngtcp2", "bbr"): {"recv_conn_window": mib(2), "recv_stream_window": mib(2)},
}

#: The profile fields a configuration may override (``params``), each with
#: its valid values: the pacing ablation, quiche's rollback (the SF patch),
#: the leaky bucket's depth and the client's ACK policy. A QUIC
#: ``max_ack_delay`` of 2^14 ms or more is invalid (RFC 9000, 18.2).
PARAMS: Dict[str, Any] = {
    "pacing": PACING_MODES,
    "spurious_rollback": (False, True),
    "bucket_packets": range(1, 1 << 31),
    "client_ack_threshold": range(1, 1 << 31),
    "client_max_ack_delay_ns": range(0, ms(1 << 14)),
}

#: Each param's type: its profile field's.
_TYPES = {f.name: type(f.default) for f in fields(StackProfile) if f.name in PARAMS}


def _stock(stack: str, cca: str) -> StackProfile:
    try:
        profile = PROFILES[stack]
    except KeyError:
        raise ConfigError(f"unknown stack {stack!r}; expected one of {STACK_NAMES}") from None
    return replace(profile, cca=cca, **CCA_QUIRKS.get((stack, cca), {}))


def check_params(stack: str, cca: str, params: Tuple[Tuple[str, Any], ...]) -> None:
    """Raise :class:`ConfigError`, naming the param and its value, unless
    every param is a known, in-range value other than the stack's own for
    this CCA, given once. ``tcp`` takes none: params are profile fields."""
    if not params:
        return
    if stack not in PROFILES:
        name, value = params[0]
        raise ConfigError(f"param {name}={value!r} on {stack}: only QUIC stacks take params")
    stock = _stock(stack, cca)
    seen = set()
    for name, value in params:
        if name not in PARAMS:
            raise ConfigError(f"unknown param {name}={value!r}; expected one of {tuple(PARAMS)}")
        if name in seen:
            raise ConfigError(f"param {name}={value!r} given twice")
        seen.add(name)
        valid = PARAMS[name]
        if type(value) is not _TYPES[name] or value not in valid:
            raise ConfigError(f"param {name}={value!r} is out of range; expected one in {valid}")
        if value == getattr(stock, name):
            raise ConfigError(
                f"param {name}={value!r} is {stack}'s own value with {cca}; leave it out"
            )


def parse_param(name: str, text: str) -> Any:
    """``text`` as a value of param ``name``, by its profile field's type:
    ``true``/``false``, an int, or a string (an unknown name's too, which
    :func:`check_params` then refuses)."""
    kind = _TYPES.get(name, str)
    try:
        return {"true": True, "false": False}[text] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise ConfigError(f"param {name}={text!r} does not parse as {kind.__name__}") from None


def param_text(value: Any) -> str:
    """A param value as :func:`parse_param` reads it."""
    return str(value).lower() if isinstance(value, bool) else str(value)


def profile_for(
    stack: str, cca: str = "cubic", params: Tuple[Tuple[str, Any], ...] = ()
) -> StackProfile:
    """``stack``'s profile with ``cca``'s quirks, then ``params``, applied."""
    check_params(stack, cca, params)
    return replace(_stock(stack, cca), **dict(params))
