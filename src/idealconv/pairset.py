"""Exact geometry for subsets of the pair universe.

Two layers:

* IntervalSet -- finite unions of integer intervals [lo, hi] (hi may be
  unbounded) inside [1, oo), closed under the Boolean operations.

* PairGrid -- a term over the pair universe is constant on the cells of
  the grid cut by the finitely many coordinate breakpoints its atoms
  mention.  Storing one truth value per cell is therefore an exact
  representation of the whole infinite set, and classification, block
  incidence and projections read off from it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

__all__ = ["IntervalSet", "PairGrid", "Span"]

# A span is (lo, hi) with hi an int >= lo, or None for an unbounded tail.
Span = tuple


def _norm(spans):
    spans = [
        (lo, hi)
        for lo, hi in spans
        if lo >= 1 and (hi is None or hi >= lo)
    ]
    spans.sort(key=lambda s: (s[0], -1 if s[1] is None else s[1]))
    merged: list = []
    for lo, hi in spans:
        if merged:
            plo, phi = merged[-1]
            if phi is None:
                break  # already swallowed everything from plo on
            if lo <= phi + 1:
                merged[-1] = (plo, None if hi is None else max(phi, hi))
                continue
        merged.append((lo, hi))
    return tuple(merged)


@dataclass(frozen=True)
class IntervalSet:
    spans: tuple

    @staticmethod
    def of(*spans) -> "IntervalSet":
        return IntervalSet(_norm(list(spans)))

    @staticmethod
    def empty() -> "IntervalSet":
        return IntervalSet(())

    @staticmethod
    def full() -> "IntervalSet":
        return IntervalSet(((1, None),))

    def contains(self, n: int) -> bool:
        for lo, hi in self.spans:
            if lo <= n and (hi is None or n <= hi):
                return True
        return False

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(_norm(list(self.spans) + list(other.spans)))

    def inter(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        for alo, ahi in self.spans:
            for blo, bhi in other.spans:
                lo = max(alo, blo)
                if ahi is None:
                    hi = bhi
                elif bhi is None:
                    hi = ahi
                else:
                    hi = min(ahi, bhi)
                if hi is None or hi >= lo:
                    out.append((lo, hi))
        return IntervalSet(_norm(out))

    def compl(self) -> "IntervalSet":
        out = []
        cur = 1
        for lo, hi in self.spans:
            if lo > cur:
                out.append((cur, lo - 1))
            if hi is None:
                return IntervalSet(_norm(out))
            cur = hi + 1
        out.append((cur, None))
        return IntervalSet(_norm(out))

    def diff(self, other: "IntervalSet") -> "IntervalSet":
        return self.inter(other.compl())

    def is_empty(self) -> bool:
        return not self.spans

    def is_finite(self) -> bool:
        return all(hi is not None for _, hi in self.spans)

    def card(self) -> int:
        assert self.is_finite()
        return sum(hi - lo + 1 for lo, hi in self.spans)

    def members(self):
        assert self.is_finite()
        out = []
        for lo, hi in self.spans:
            out.extend(range(lo, hi + 1))
        return out

    def truncate(self, bound: int):
        return [n for n in range(1, bound + 1) if self.contains(n)]


def _cell_spans(cuts):
    """Half-open cut points -> inclusive spans; the last one is a tail."""
    spans = []
    for i, lo in enumerate(cuts):
        if i + 1 < len(cuts):
            spans.append((lo, cuts[i + 1] - 1))
        else:
            spans.append((lo, None))
    return spans


@dataclass(frozen=True)
class PairGrid:
    """xcuts/ycuts are ascending and start at 1; truth[ix][iy] holds the
    constant membership value of the cell xspan(ix) x yspan(iy)."""

    xcuts: tuple
    ycuts: tuple
    truth: tuple

    def xspans(self):
        return _cell_spans(self.xcuts)

    def yspans(self):
        return _cell_spans(self.ycuts)

    def contains(self, e) -> bool:
        a, b = e
        ix = bisect_right(self.xcuts, a) - 1
        iy = bisect_right(self.ycuts, b) - 1
        return self.truth[ix][iy]

    def true_cells(self):
        xs, ys = self.xspans(), self.yspans()
        for ix, col in enumerate(self.truth):
            for iy, val in enumerate(col):
                if val:
                    yield xs[ix], ys[iy]

    # -- classification ----------------------------------------------

    def is_empty(self) -> bool:
        return not any(any(col) for col in self.truth)

    def is_finite(self) -> bool:
        for (xl, xh), (yl, yh) in self.true_cells():
            if xh is None or yh is None:
                return False
        return True

    def card(self) -> int:
        # Cells partition the plane, so no dedup is needed.
        total = 0
        for (xl, xh), (yl, yh) in self.true_cells():
            assert xh is not None and yh is not None
            total += (xh - xl + 1) * (yh - yl + 1)
        return total

    def elements(self):
        out = []
        for (xl, xh), (yl, yh) in self.true_cells():
            for a in range(xl, xh + 1):
                for b in range(yl, yh + 1):
                    out.append((a, b))
        out.sort()
        return out

    # -- structure readings ------------------------------------------

    def column_incidence(self) -> IntervalSet:
        """First coordinates met, i.e. which columns {i} x N intersect."""
        acc = IntervalSet.empty()
        for (xl, xh), _ in self.true_cells():
            acc = acc.union(IntervalSet.of((xl, xh)))
        return acc

    def min_coord_incidence(self) -> IntervalSet:
        """Values of min(a, b) attained.  For a full cell I x J the
        attained minima form exactly [min lows, min highs]."""
        acc = IntervalSet.empty()
        for (xl, xh), (yl, yh) in self.true_cells():
            lo = min(xl, yl)
            if xh is None:
                hi = yh
            elif yh is None:
                hi = xh
            else:
                hi = min(xh, yh)
            acc = acc.union(IntervalSet.of((lo, hi)))
        return acc

    def avoids_some_quadrant(self) -> bool:
        """True iff the set misses [m, oo) x [m, oo) for some m, which for
        cells means every true cell has a bounded side."""
        for (xl, xh), (yl, yh) in self.true_cells():
            if xh is None and yh is None:
                return False
        return True

    def project_second(self, x_limit: int) -> IntervalSet:
        """Second coordinates of members with first coordinate <= x_limit."""
        acc = IntervalSet.empty()
        for (xl, xh), (yl, yh) in self.true_cells():
            if xl <= x_limit:
                acc = acc.union(IntervalSet.of((yl, yh)))
        return acc

    def cut_at(self, x: int) -> IntervalSet:
        """Second coordinates of members with first coordinate exactly x."""
        acc = IntervalSet.empty()
        for (xl, xh), (yl, yh) in self.true_cells():
            if xl <= x and (xh is None or x <= xh):
                acc = acc.union(IntervalSet.of((yl, yh)))
        return acc
