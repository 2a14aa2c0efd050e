"""Result invariants every repetition must pass before it is cached or
summarized.

A sweep that silently absorbs a torn cache write or a logic regression
produces a *wrong table*, which is worse than a crash. Every invariant holds
for any correct simulation of any configuration, so a violation names a real
defect; it raises :class:`~repro.errors.ValidationError` with the
invariant's name, and supervision records it as a failed repetition.

Every flow is held to the run's conservation: a positive duration,
non-negative goodput and counters, stage counters that never drop more than
they saw, and a forward path that cannot drop more frames than crossed the
tap (plus injected duplicates). A multi-flow run's per-flow counters also
sum to its totals, and nothing went unrouted. A one-flow result adds what its
own capture allows: monotonic capture and trace times, a completed download
whose payload on the wire covers the file, and a delivery (the file once
complete, else goodput x duration) within what the bottleneck could carry.
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.framework.experiment import ExperimentResult
from repro.framework.multiflow import MultiFlowResult
from repro.framework.population import PopulationResult
from repro.units import SEC

#: Multiplicative slack on the rate-ceiling check: covers integer rounding in
#: token accounting, never a real overshoot (which would be ~2x at link rate).
RATE_SLACK = 1.01

#: One MTU of absolute slack (bytes) for boundary frames in the ceiling check.
MTU_SLACK_BYTES = 1500


def _check(condition: bool, invariant: str, detail: str) -> None:
    if not condition:
        raise ValidationError(f"{invariant}: {detail}")


def _check_monotonic(times, invariant: str) -> None:
    previous = None
    for index, t in enumerate(times):
        if previous is not None and t < previous:
            raise ValidationError(
                f"{invariant}: timestamp at index {index} went backwards ({t} < {previous})"
            )
        previous = t


def validate_result(result) -> None:
    """Raise :class:`ValidationError` naming the first violated invariant.

    Dispatches on result type so the sweep stack can gate single-flow,
    multi-flow, and population results through one entry point.
    """
    if isinstance(result, PopulationResult):
        validate_population(result)
    elif isinstance(result, MultiFlowResult):
        validate_multiflow(result)
    else:
        validate_experiment(result)


def _check_counters(tag: str, duration_ns: int, goodput_mbps: float, **counters: int) -> None:
    """A flow's duration is positive, its goodput and counters are not
    negative."""
    _check(duration_ns >= 1, "duration", f"{tag}non-positive {duration_ns}")
    _check(goodput_mbps >= 0.0, "goodput", f"{tag}negative {goodput_mbps}")
    for counter, value in counters.items():
        _check(value >= 0, counter, f"{tag}negative {value}")


def _check_stages(impairment_stats: dict) -> None:
    """Every stage counter is non-negative, and no stage dropped more than it
    saw."""
    for stage, stats in impairment_stats.items():
        for counter, value in stats.items():
            _check(
                value >= 0,
                "impairment-counters",
                f"stage {stage!r} counter {counter!r} is negative ({value})",
            )
        _check(
            stats["injected_drops"] <= stats["seen"],
            "impairment-counters",
            f"stage {stage!r} dropped {stats['injected_drops']} of only "
            f"{stats['seen']} seen packets",
        )


def _check_drop_conservation(dropped: int, impairment_stats: dict, wire_packets: int) -> None:
    """The forward path cannot drop more frames than crossed the tap, plus
    the duplicates its stages injected."""
    fwd = [s for name, s in impairment_stats.items() if name.startswith("fwd/")]
    injected = sum(s["injected_drops"] for s in fwd)
    duplicated = sum(s["duplicated"] for s in fwd)
    _check(
        dropped + injected <= wire_packets + duplicated,
        "drop-conservation",
        f"{dropped} congestion + {injected} injected drops exceed "
        f"{wire_packets} captured + {duplicated} duplicated frames",
    )


def validate_multiflow(result: MultiFlowResult) -> None:
    """Multi-flow conservation invariants.

    Every per-flow counter must reconcile with the shared-path totals — the
    bugs this guards against are exactly the historical ones: goodput
    computed from the configured size instead of delivered bytes, injected
    drops vanishing from the attribution, and unrouted demux datagrams
    silently disappearing.
    """
    _check(result.sim_time_ns >= 0, "sim-time", f"negative {result.sim_time_ns}")
    _check(
        result.unrouted == 0,
        "demux-routing",
        f"{result.unrouted} datagrams reached a demux with no route "
        f"(a flow's port was never registered)",
    )
    for index, flow in enumerate(result.flows):
        tag = f"flow {index} ({flow.spec.label}): "
        size = flow.spec.file_size
        _check(
            flow.bytes_received == size if flow.completed else 0 <= flow.bytes_received <= size,
            "bytes-received",
            f"{tag}{'completed but ' if flow.completed else ''}delivered "
            f"{flow.bytes_received} of {size} B",
        )
        _check_counters(
            tag,
            flow.duration_ns,
            flow.goodput_mbps,
            dropped=flow.dropped,
            injected_drops=flow.injected_drops,
            ack_drops=flow.ack_drops,
            wire_packets=flow.wire_packets,
        )
    for counter, total, path in (
        ("dropped", result.total_dropped, "the bottleneck dropped"),
        ("injected_drops", result.injected_drops, "the forward stages injected"),
        ("ack_drops", result.ack_drops, "the reverse stages injected"),
    ):
        flows = sum(getattr(f, counter) for f in result.flows)
        _check(
            flows == total,
            "drop-attribution",
            f"per-flow {counter} sum to {flows} but {path} {total}",
        )
    _check_stages(result.impairment_stats)
    _check_drop_conservation(
        result.total_dropped, result.impairment_stats, sum(f.wire_packets for f in result.flows)
    )


def validate_population(result: PopulationResult) -> None:
    """Population invariants: the embedded multi-flow result plus the
    aggregate bookkeeping that ties it back to the generating config."""
    validate_multiflow(result.multi)
    cfg = result.config
    _check(
        len(result.multi.flows) == cfg.flows,
        "population-size",
        f"config asked for {cfg.flows} flows but the run holds "
        f"{len(result.multi.flows)}",
    )
    profile_flows = sum(int(p["flows"]) for p in result.per_profile.values())
    _check(
        profile_flows == cfg.flows,
        "profile-partition",
        f"per-profile flow counts sum to {profile_flows}, expected {cfg.flows}",
    )
    profile_completed = sum(int(p["completed"]) for p in result.per_profile.values())
    _check(
        profile_completed == result.completed_count,
        "profile-partition",
        f"per-profile completed counts sum to {profile_completed}, expected "
        f"{result.completed_count}",
    )
    _check(
        0.0 <= result.fairness <= 1.0 + 1e-9,
        "fairness-range",
        f"Jain index {result.fairness} outside [0, 1]",
    )
    if not cfg.capture_records:
        _check(
            all(not f.records for f in result.multi.flows),
            "capture-opt-in",
            "capture_records=False but per-flow captures were materialized",
        )


def validate_experiment(result: ExperimentResult) -> None:
    """One-flow invariants: the multi-flow conservation checks, plus the
    capture, byte and rate checks only a flow's own capture allows."""
    cfg = result.config

    # -- the conservation a multi-flow run is held to ------------------------
    _check_counters(
        "",
        result.duration_ns,
        result.goodput_mbps,
        dropped=result.dropped,
        injected_drops=result.injected_drops,
    )
    _check_stages(result.impairment_stats)
    stage_total = sum(s["injected_drops"] for s in result.impairment_stats.values())
    _check(
        result.injected_drops == stage_total,
        "injected-drops",
        f"result counts {result.injected_drops} but stages sum to {stage_total}",
    )
    _check_drop_conservation(result.dropped, result.impairment_stats, result.packets_on_wire)

    # -- capture monotonicity ---------------------------------------------
    _check_monotonic(result.server_records.time_ns, "capture-monotonic")
    wire_payload = sum(result.server_records.payload_size)
    _check_monotonic((t for t, _ in result.cwnd_trace), "cwnd-trace-monotonic")
    _check_monotonic((t for t, _ in result.queue_trace), "queue-trace-monotonic")

    # -- byte conservation -------------------------------------------------
    if result.completed:
        _check(
            wire_payload >= cfg.file_size,
            "bytes-conservation",
            f"completed download of {cfg.file_size} B but only {wire_payload} B "
            f"of payload crossed the tap",
        )

    # -- rate ceiling ------------------------------------------------------
    # What was delivered: the file once complete, else goodput x duration.
    delivered = cfg.file_size if result.completed else result.goodput_mbps * result.duration_ns / 8e3
    net = cfg.network
    if net.bottleneck == "wifi":
        ceiling_bps = net.wifi_phy_rate_bps
        burst_bytes = net.wifi_max_aggregate * MTU_SLACK_BYTES
    else:
        ceiling_bps = net.bottleneck_rate_bps
        burst_bytes = net.tbf_burst_bytes
    capacity_bytes = ceiling_bps * result.duration_ns / (8 * SEC) + burst_bytes + MTU_SLACK_BYTES
    _check(
        delivered <= capacity_bytes * RATE_SLACK,
        "rate-ceiling",
        f"delivered {delivered:.0f} B in {result.duration_ns} ns but the "
        f"bottleneck could carry at most {capacity_bytes:.0f} B "
        f"({result.goodput_mbps:.2f} Mbit/s goodput vs "
        f"{ceiling_bps / 1e6:.2f} Mbit/s ceiling)",
    )
