"""Result persistence: experiment outputs as JSON artifacts.

Mirrors the paper's artifact practice (all measurement data published for
re-analysis): every run can be serialized with enough detail to recompute
the evaluation metrics without re-running the simulation.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional

from repro.framework.experiment import ExperimentResult
from repro.framework.population import PopulationResult
from repro.framework.runner import RunSummary
from repro.metrics.gaps import fraction_leq, inter_packet_gaps
from repro.metrics.trains import packets_by_train_length
from repro.units import us


def result_to_dict(
    result: ExperimentResult,
    include_capture: bool = False,
    fingerprint: Optional[str] = None,
) -> Dict[str, Any]:
    """Serialize one repetition (the capture is optional — it is big).

    ``fingerprint`` is ``result.fingerprint()`` when the caller already has
    it (the sweep computes one digest per repetition); ``None`` computes it.
    """
    gaps = inter_packet_gaps(result.server_records)
    # One train-detection pass feeds both the histogram and the <=5 share.
    trains = packets_by_train_length(result.server_records)
    train_total = sum(trains.values())
    trains_leq5 = (
        sum(count for length, count in trains.items() if length <= 5) / train_total
        if train_total
        else 0.0
    )
    out = {
        # In the JSON data model (impairment specs as lists, not tuples), so
        # an in-memory dict equals its save/load round trip.
        "config": result.config.canonical_dict(),
        "seed": result.seed,
        "fingerprint": fingerprint if fingerprint is not None else result.fingerprint(),
        "completed": result.completed,
        "duration_ns": result.duration_ns,
        "goodput_mbps": result.goodput_mbps,
        "dropped": result.dropped,
        "injected_drops": result.injected_drops,
        "impairment_stats": result.impairment_stats,
        "packets_on_wire": result.packets_on_wire,
        "qdisc_stats": result.qdisc_stats,
        "server_stats": result.server_stats,
        "metrics": {
            "back_to_back_share": fraction_leq(gaps, us(15)),
            "trains_leq5_share": trains_leq5,
            "packets_by_train_length": {
                str(k): v for k, v in sorted(trains.items())
            },
        },
    }
    if include_capture:
        cols = result.server_records
        out["capture"] = [
            {"t_ns": t, "pn": None if pn < 0 else pn, "size": size}
            for t, pn, size in zip(cols.time_ns, cols.packet_number, cols.wire_size)
        ]
    return out


def population_result_to_dict(
    result: PopulationResult, fingerprint: Optional[str] = None
) -> Dict[str, Any]:
    """Serialize one population repetition: the aggregate evaluation view
    (distributions, fairness, competition matrix), never the per-flow
    capture — populations keep the capture columnar and in-memory only."""
    return {
        "config": result.config.canonical_dict(),
        "seed": result.seed,
        "fingerprint": fingerprint if fingerprint is not None else result.fingerprint(),
        "completed": result.completed,
        "flows": len(result.multi.flows),
        "completed_flows": result.completed_count,
        "duration_ns": result.duration_ns,
        "aggregate_goodput_mbps": result.goodput_mbps,
        "dropped": result.dropped,
        "injected_drops": result.injected_drops,
        "ack_drops": result.multi.ack_drops,
        "unrouted": result.multi.unrouted,
        "fairness": result.fairness,
        "metrics": {
            "goodput_mbps": result.goodput_dist,
            "fct_ms": result.fct_ms_dist,
            "loss": result.loss_dist,
        },
        "per_profile": result.per_profile,
        "ratio_matrix": result.ratio_matrix,
        "beats": [list(pair) for pair in result.beats],
        "transitivity_violations": [list(t) for t in result.transitivity],
    }


def rep_to_dict(
    result, include_capture: bool = False, fingerprint: Optional[str] = None
) -> Dict[str, Any]:
    """Serialize one repetition of either kind (experiment or population).

    This is the *single* canonical JSON form of a repetition: the result
    store persists exactly this payload per row, so a store export and a
    JSON artifact of the same run are equal by construction.
    """
    if isinstance(result, PopulationResult):
        return population_result_to_dict(result, fingerprint)
    return result_to_dict(result, include_capture, fingerprint)


def summary_to_dict(summary: RunSummary, include_capture: bool = False) -> Dict[str, Any]:
    return {
        "label": summary.config.label,
        "goodput_mbps": {"mean": summary.goodput.mean, "std": summary.goodput.std},
        "dropped": {"mean": summary.dropped.mean, "std": summary.dropped.std},
        "repetitions": [rep_to_dict(r, include_capture) for r in summary.results],
        # Failed repetitions ride along as structured records (never silently
        # dropped from the artifact): exception type, attempts, wall time.
        "failures": [f.as_dict() for f in summary.failures],
    }


def save_summary(summary: RunSummary, path: str | Path, include_capture: bool = False) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(summary_to_dict(summary, include_capture), indent=2))
    return path


def load_summary_dict(path: str | Path) -> Dict[str, Any]:
    return json.loads(Path(path).read_text())
