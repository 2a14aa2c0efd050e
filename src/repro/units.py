"""Time, rate, and size units used across the simulator.

All simulation time is kept as **integer nanoseconds** so that event ordering
is exact and reproducible (no floating-point accumulation drift), matching the
sub-microsecond timestamp resolution of the paper's MoonGen sniffer.

Rates are **bits per second** as integers. Sizes are bytes as integers.
"""

from __future__ import annotations

#: One nanosecond, the base time unit.
NSEC = 1
#: Nanoseconds per microsecond.
USEC = 1_000
#: Nanoseconds per millisecond.
MSEC = 1_000_000
#: Nanoseconds per second.
SEC = 1_000_000_000
#: Bits per byte times nanoseconds per second: ``nbytes * BYTE_NS / rate_bps``
#: is a transmission time in nanoseconds, ``rate_bps * ns / BYTE_NS`` bytes.
BYTE_NS = 8 * SEC


def us(value: float) -> int:
    """Convert microseconds to integer nanoseconds."""
    return round(value * USEC)


def ms(value: float) -> int:
    """Convert milliseconds to integer nanoseconds."""
    return round(value * MSEC)


def seconds(value: float) -> int:
    """Convert seconds to integer nanoseconds."""
    return round(value * SEC)


def mbit(value: float) -> int:
    """Convert megabits-per-second to bits-per-second."""
    return round(value * 1_000_000)


def gbit(value: float) -> int:
    """Convert gigabits-per-second to bits-per-second."""
    return round(value * 1_000_000_000)


def kib(value: float) -> int:
    """Convert KiB to bytes."""
    return round(value * 1024)


def mib(value: float) -> int:
    """Convert MiB to bytes."""
    return round(value * 1024 * 1024)


def tx_time_ns(nbytes: int, rate_bps: int) -> int:
    """Serialization delay of ``nbytes`` at ``rate_bps``, in nanoseconds.

    Rounds up so that back-to-back transmissions never overlap.
    """
    if rate_bps <= 0:
        raise ValueError(f"rate must be positive, got {rate_bps}")
    return -(-nbytes * BYTE_NS // rate_bps)  # ceil division


def bytes_per_ns(rate_bps: int, duration_ns: int) -> int:
    """How many whole bytes fit into ``duration_ns`` at ``rate_bps``."""
    return rate_bps * duration_ns // BYTE_NS


def rate_bps_from(nbytes: int, duration_ns: int) -> float:
    """Average rate in bits/s of ``nbytes`` transferred over ``duration_ns``."""
    if duration_ns <= 0:
        raise ValueError(f"duration must be positive, got {duration_ns}")
    return nbytes * 8 * SEC / duration_ns


def fmt_time(t_ns: int) -> str:
    """Human-readable rendering of a nanosecond timestamp or duration."""
    if abs(t_ns) >= SEC:
        return f"{t_ns / SEC:.3f}s"
    if abs(t_ns) >= MSEC:
        return f"{t_ns / MSEC:.3f}ms"
    if abs(t_ns) >= USEC:
        return f"{t_ns / USEC:.3f}us"
    return f"{t_ns}ns"


def fmt_rate(rate_bps: float) -> str:
    """Human-readable rendering of a bits-per-second rate."""
    if rate_bps >= 1_000_000_000:
        return f"{rate_bps / 1e9:.2f}Gbit/s"
    if rate_bps >= 1_000_000:
        return f"{rate_bps / 1e6:.2f}Mbit/s"
    if rate_bps >= 1_000:
        return f"{rate_bps / 1e3:.2f}kbit/s"
    return f"{rate_bps:.0f}bit/s"
