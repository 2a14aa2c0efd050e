"""Result invariants: sanity checks every repetition must pass before it is
cached or summarized.

A long sweep that silently absorbs a torn cache write or a logic regression
produces a *wrong table*, which is strictly worse than a crashed run. Every
invariant here is conservative — it holds for any correct simulation of any
configuration — so a violation always names a real defect (corrupt entry,
broken accounting, non-monotonic clock) rather than an unusual-but-valid
result. Violations raise :class:`~repro.errors.ValidationError` with the
invariant's name, and the supervision layer records them as structured
repetition failures instead of caching garbage.

Checked invariants:

* **counter sanity** — durations, drop counts, and per-stage impairment
  counters are non-negative; ``injected_drops`` equals the sum of the
  per-stage counters; no stage dropped more packets than it saw.
* **capture monotonicity** — tap timestamps, cwnd-trace times, and
  queue-trace times never decrease (simulation time cannot run backwards).
* **byte conservation** — a completed download must have put at least
  ``file_size`` payload bytes on the wire (retransmissions only add), and
  the forward path cannot drop more frames than crossed the tap (plus
  injected duplicates).
* **rate ceiling** — goodput of a completed transfer cannot exceed what the
  bottleneck (TBF rate + token burst, or the Wi-Fi PHY rate) could have
  carried in the measured duration.
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
        tag = f"flow {index} ({flow.spec.label})"
        _check(flow.duration_ns >= 1, "duration", f"{tag}: non-positive {flow.duration_ns}")
        _check(flow.goodput_mbps >= 0.0, "goodput", f"{tag}: negative {flow.goodput_mbps}")
        _check(
            0 <= flow.bytes_received <= flow.spec.file_size,
            "bytes-received",
            f"{tag}: {flow.bytes_received} outside [0, {flow.spec.file_size}]",
        )
        if flow.completed:
            _check(
                flow.bytes_received == flow.spec.file_size,
                "bytes-received",
                f"{tag}: completed but delivered {flow.bytes_received} of "
                f"{flow.spec.file_size} B",
            )
        for counter in ("dropped", "injected_drops", "ack_drops", "wire_packets"):
            value = getattr(flow, counter)
            _check(value >= 0, counter, f"{tag}: negative {value}")
    _check(
        sum(f.dropped for f in result.flows) == result.total_dropped,
        "drop-attribution",
        f"per-flow congestion drops sum to {sum(f.dropped for f in result.flows)} "
        f"but the bottleneck dropped {result.total_dropped}",
    )
    _check(
        sum(f.injected_drops for f in result.flows) == result.injected_drops,
        "injected-drop-attribution",
        f"per-flow injected drops sum to "
        f"{sum(f.injected_drops for f in result.flows)} but the forward stages "
        f"injected {result.injected_drops}",
    )
    _check(
        sum(f.ack_drops for f in result.flows) == result.ack_drops,
        "ack-drop-attribution",
        f"per-flow ACK drops sum to {sum(f.ack_drops for f in result.flows)} "
        f"but the reverse stages injected {result.ack_drops}",
    )
    for stage, stats in result.impairment_stats.items():
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
    fwd = {k: v for k, v in result.impairment_stats.items() if k.startswith("fwd/")}
    fwd_duplicated = sum(s["duplicated"] for s in fwd.values())
    wire_total = sum(f.wire_packets for f in result.flows)
    _check(
        result.total_dropped + result.injected_drops <= wire_total + fwd_duplicated,
        "drop-conservation",
        f"{result.total_dropped} congestion + {result.injected_drops} injected "
        f"drops exceed {wire_total} captured + {fwd_duplicated} duplicated frames",
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
    """Single-flow invariants (the original checks)."""
    cfg = result.config

    # -- counter sanity ----------------------------------------------------
    _check(result.duration_ns >= 1, "duration", f"non-positive {result.duration_ns}")
    _check(result.goodput_mbps >= 0.0, "goodput", f"negative {result.goodput_mbps}")
    _check(result.dropped >= 0, "dropped", f"negative {result.dropped}")
    _check(
        result.injected_drops >= 0, "injected-drops", f"negative {result.injected_drops}"
    )
    stage_total = 0
    for stage, stats in result.impairment_stats.items():
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
        stage_total += stats["injected_drops"]
    _check(
        result.injected_drops == stage_total,
        "injected-drops",
        f"result counts {result.injected_drops} but stages sum to {stage_total}",
    )

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
    fwd = {k: v for k, v in result.impairment_stats.items() if k.startswith("fwd/")}
    fwd_injected = sum(s["injected_drops"] for s in fwd.values())
    fwd_duplicated = sum(s["duplicated"] for s in fwd.values())
    _check(
        result.dropped + fwd_injected
        <= result.packets_on_wire + fwd_duplicated,
        "drop-conservation",
        f"{result.dropped} congestion + {fwd_injected} injected drops exceed "
        f"{result.packets_on_wire} captured + {fwd_duplicated} duplicated frames",
    )

    # -- rate ceiling ------------------------------------------------------
    if result.completed:
        net = cfg.network
        if net.bottleneck == "wifi":
            ceiling_bps = net.wifi_phy_rate_bps
            burst_bytes = net.wifi_max_aggregate * MTU_SLACK_BYTES
        else:
            ceiling_bps = net.bottleneck_rate_bps
            burst_bytes = net.tbf_burst_bytes
        capacity_bytes = (
            ceiling_bps * result.duration_ns / (8 * SEC) + burst_bytes + MTU_SLACK_BYTES
        )
        _check(
            cfg.file_size <= capacity_bytes * RATE_SLACK,
            "rate-ceiling",
            f"delivered {cfg.file_size} B in {result.duration_ns} ns but the "
            f"bottleneck could carry at most {capacity_bytes:.0f} B "
            f"({result.goodput_mbps:.2f} Mbit/s goodput vs "
            f"{ceiling_bps / 1e6:.2f} Mbit/s ceiling)",
        )
