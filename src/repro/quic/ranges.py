"""Byte/packet range set with merge semantics.

Used by receive streams (reassembly tracking), send streams (acked bytes) and
tests. Ranges are half-open ``[start, end)`` over non-negative integers.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Iterator, List, Tuple

_start = itemgetter(0)


class RangeSet:
    """Sorted set of disjoint half-open ranges."""

    def __init__(self) -> None:
        self._ranges: List[List[int]] = []

    def add(self, start: int, end: int) -> int:
        """Insert ``[start, end)``; returns the number of newly covered ints."""
        if end <= start:
            return 0
        ranges = self._ranges
        # In-order delivery makes appends at (or past) the frontier the
        # overwhelmingly common case; handle them without the general scan.
        if not ranges:
            ranges.append([start, end])
            return end - start
        last = ranges[-1]
        if start == last[1]:
            last[1] = end
            return end - start
        if start > last[1]:
            ranges.append([start, end])
            return end - start
        i: int = bisect_left(ranges, start, key=_start)
        # The predecessor may overlap or touch.
        if i > 0 and ranges[i - 1][1] >= start:
            i -= 1
        new_start, new_end = start, end
        added: int = end - start
        j: int = i
        while j < len(ranges) and ranges[j][0] <= new_end:
            lo, hi = ranges[j]
            added -= _overlap(start, end, lo, hi)
            new_start = min(new_start, lo)
            new_end = max(new_end, hi)
            j += 1
        ranges[i:j] = [[new_start, new_end]]
        return max(added, 0)

    def contains(self, value: int) -> bool:
        i = bisect_left(self._ranges, value + 1, key=_start) - 1
        return i >= 0 and self._ranges[i][0] <= value < self._ranges[i][1]

    def covers(self, start: int, end: int) -> bool:
        """True if the whole of ``[start, end)`` is present."""
        if end <= start:
            return True
        i = bisect_left(self._ranges, start + 1, key=_start) - 1
        return i >= 0 and self._ranges[i][0] <= start and self._ranges[i][1] >= end

    def discard_below(self, bound: int) -> None:
        """Forget every value ``< bound``, trimming a range that straddles it."""
        ranges = self._ranges
        if not ranges or ranges[0][0] >= bound:
            return
        drop = 0
        while drop < len(ranges) and ranges[drop][1] <= bound:
            drop += 1
        del ranges[:drop]
        if ranges and ranges[0][0] < bound:
            ranges[0][0] = bound

    def first_gap_from(self, start: int) -> int:
        """Smallest value >= start not in the set (the contiguous frontier)."""
        pos = start
        for lo, hi in self._ranges:
            if lo > pos:
                return pos
            if pos < hi:
                pos = hi
        return pos

    def missing_within(self, start: int, end: int) -> List[Tuple[int, int]]:
        """Sub-ranges of ``[start, end)`` not present in the set."""
        gaps: List[Tuple[int, int]] = []
        pos = start
        for lo, hi in self._ranges:
            if hi <= pos:
                continue
            if lo >= end:
                break
            if lo > pos:
                gaps.append((pos, min(lo, end)))
            pos = max(pos, hi)
            if pos >= end:
                return gaps
        if pos < end:
            gaps.append((pos, end))
        return gaps

    @property
    def upper(self) -> int:
        """One past the highest covered value (0 when empty)."""
        return self._ranges[-1][1] if self._ranges else 0

    @property
    def total(self) -> int:
        return sum(hi - lo for lo, hi in self._ranges)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return (tuple(r) for r in self._ranges)

    def __len__(self) -> int:
        return len(self._ranges)

    def __repr__(self) -> str:
        return f"RangeSet({[tuple(r) for r in self._ranges]})"


def _overlap(a0: int, a1: int, b0: int, b1: int) -> int:
    return max(0, min(a1, b1) - max(a0, b0))
