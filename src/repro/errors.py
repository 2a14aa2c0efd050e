"""Exception hierarchy for the reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class SimulationError(ReproError):
    """The event engine was used incorrectly (e.g. scheduling in the past)."""


class ProtocolError(ReproError):
    """A QUIC/TCP protocol invariant was violated."""


class EncodingError(ProtocolError):
    """Wire encoding or decoding failed."""


class FlowControlError(ProtocolError):
    """A peer exceeded an advertised flow-control limit."""


class ConfigError(ReproError):
    """An experiment or stack configuration is invalid."""


class ExecutionError(ReproError):
    """A repetition could not be executed (harness failure, not a sim bug)."""


class RepTimeoutError(ExecutionError):
    """A repetition exceeded its supervised wall-clock budget."""


class WorkerCrashError(ExecutionError):
    """The process pool died (segfault/OOM/exit) while a repetition ran."""


class QuarantinedError(ExecutionError):
    """A repetition was skipped because its configuration was quarantined
    after repeated consecutive failures."""


class ValidationError(ReproError):
    """A finished repetition violated a result invariant (conservation,
    monotonicity, rate ceiling); the result must not be cached or summarized."""
