"""Inter-packet gap analysis (paper Figure 2 / Figure 4 top rows).

Gap extraction reads the time column of a capture
(:class:`~repro.net.tap.CaptureColumns`). Quantile queries share one sort
via :class:`Distribution`; the free functions (``cdf``, ``percentile``,
``fraction_leq``) remain for one-off calls and delegate to it.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import islice
from typing import List, Sequence, Tuple

from repro.net.tap import CaptureColumns


def inter_packet_gaps(records: CaptureColumns) -> List[int]:
    """Gaps (ns) between consecutive captured packets, in capture order."""
    times = records.time_ns
    return [b - a for a, b in zip(times, islice(times, 1, None))]


def pooled_gaps(groups: Sequence[CaptureColumns]) -> List[int]:
    """Gaps pooled across capture groups (repetitions), computed per group.

    The paper combines all repetitions before computing the gap distribution;
    computing gaps within each group first ensures no gap straddles a
    repetition boundary (those "gaps" would be meaningless wall-clock deltas
    between independent simulations).
    """
    out: List[int] = []
    for records in groups:
        out.extend(inter_packet_gaps(records))
    return out


class Distribution:
    """A value set sorted once, answering every quantile-style query.

    ``cdf``/``percentile``/``fraction_leq`` each used to re-sort the full gap
    list per call; analysis code queries all three on the same gaps, so the
    shared sort is the dominant cost and is paid exactly once here.
    """

    __slots__ = ("_sorted",)

    def __init__(self, values: Sequence[float]):
        self._sorted = sorted(values)

    def __len__(self) -> int:
        return len(self._sorted)

    def cdf(self, points: int = 200) -> Tuple[List[float], List[float]]:
        """Empirical CDF sampled at ``points`` quantiles: returns (xs, ps)."""
        ordered = self._sorted
        if not ordered:
            return [], []
        n = len(ordered)
        xs: List[float] = []
        ps: List[float] = []
        for i in range(points + 1):
            p = i / points
            idx = min(int(p * (n - 1)), n - 1)
            xs.append(float(ordered[idx]))
            ps.append(p)
        return xs, ps

    def percentile(self, p: float) -> float:
        """p-quantile (0..1) with nearest-rank semantics."""
        ordered = self._sorted
        if not ordered:
            raise ValueError("percentile of empty sequence")
        idx = min(int(p * (len(ordered) - 1) + 0.5), len(ordered) - 1)
        return float(ordered[idx])

    def fraction_leq(self, threshold: float) -> float:
        """Fraction of values <= threshold (e.g. back-to-back share)."""
        ordered = self._sorted
        if not ordered:
            return 0.0
        return bisect_right(ordered, threshold) / len(ordered)


def fraction_leq(values: Sequence[float], threshold: float) -> float:
    """Fraction of values <= threshold (e.g. back-to-back share of gaps)."""
    if not values:
        return 0.0
    return sum(1 for v in values if v <= threshold) / len(values)
