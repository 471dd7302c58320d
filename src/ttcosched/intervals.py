"""Sorted disjoint integer interval sets.

Used both as admissible start-time domains in the constructive heuristic
and as variable domains in the search engine.  Intervals are closed
``[lo, hi]`` over integers; adjacent intervals are merged so the canonical
form always satisfies ``hi_o + 1 < lo_{o+1}``.
"""

from __future__ import annotations

from bisect import bisect_right


class IntervalSet:
    """Immutable-ish set of integers stored as sorted disjoint closed intervals."""

    __slots__ = ("_ivs",)

    def __init__(self, intervals=()):
        ivs = sorted((int(lo), int(hi)) for lo, hi in intervals if lo <= hi)
        merged: list[tuple[int, int]] = []
        for lo, hi in ivs:
            if merged and lo <= merged[-1][1] + 1:
                if hi > merged[-1][1]:
                    merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        self._ivs = merged

    @classmethod
    def span(cls, lo: int, hi: int) -> "IntervalSet":
        s = cls.__new__(cls)
        s._ivs = [(lo, hi)] if lo <= hi else []
        return s

    @property
    def intervals(self) -> list[tuple[int, int]]:
        return list(self._ivs)

    def is_empty(self) -> bool:
        return not self._ivs

    def min(self) -> int:
        return self._ivs[0][0]

    def max(self) -> int:
        return self._ivs[-1][1]

    def __contains__(self, x: int) -> bool:
        i = bisect_right(self._ivs, (x, float("inf"))) - 1
        return i >= 0 and self._ivs[i][0] <= x <= self._ivs[i][1]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalSet) and self._ivs == other._ivs

    def __repr__(self) -> str:
        body = " u ".join(f"[{lo},{hi}]" for lo, hi in self._ivs)
        return f"IntervalSet({body or 'empty'})"

    def points(self):
        for lo, hi in self._ivs:
            yield from range(lo, hi + 1)

    def snap_ge(self, x: int):
        """Smallest member >= x, or None."""
        i = bisect_right(self._ivs, (x, float("inf"))) - 1
        if i >= 0 and x <= self._ivs[i][1]:
            return max(x, self._ivs[i][0])
        if i + 1 < len(self._ivs):
            return self._ivs[i + 1][0]
        return None

    def snap_le(self, x: int):
        """Largest member <= x, or None."""
        i = bisect_right(self._ivs, (x, float("inf"))) - 1
        if i < 0:
            return None
        lo, hi = self._ivs[i]
        return min(x, hi) if x >= lo else hi if x > hi else None
