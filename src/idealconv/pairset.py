"""Exact geometry for subsets of the pair universe.

Two layers:

* IntervalSet -- finite unions of integer intervals [lo, hi] (hi may be
  unbounded) inside [1, oo), the form the grid's readings take.

* PairGrid -- a term over the pair universe is constant on the cells of
  the grid cut by the finitely many coordinate breakpoints its atoms
  mention.  One truth value per cell is therefore an exact
  representation of the whole infinite set, and classification, block
  incidence and projections read off from it.

The truth values are one Python-int cell mask, and this module owns its
bit layout (Cells): an atom's mask is built whole, as an outer product
for a box or in one pass over a byte buffer for a finite set, and the
Boolean operations are single word operations (complement is an XOR with
the full mask).  Building and every reading cost time linear in the
number of cells; a grid of more than 2**24 cells raises SizeTooLarge
before any mask is built.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass

from .errors import PreconditionViolated, SizeTooLarge
from .natset import _BUDGET_LOG2

__all__ = ["Cells", "IntervalSet", "PairGrid"]


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
    """Disjoint spans (lo, hi), ascending, hi an int >= lo or None for an
    unbounded tail."""

    spans: tuple

    @staticmethod
    def of(*spans) -> "IntervalSet":
        return IntervalSet(_norm(list(spans)))

    def is_finite(self) -> bool:
        return all(hi is not None for _, hi in self.spans)

    def members(self):
        if not self.is_finite():
            raise PreconditionViolated("members of an infinite interval set")
        out = []
        for lo, hi in self.spans:
            out.extend(range(lo, hi + 1))
        return out


def _cell_spans(cuts):
    """Half-open cut points -> inclusive spans; the last one is a tail."""
    spans = []
    for i, lo in enumerate(cuts):
        if i + 1 < len(cuts):
            spans.append((lo, cuts[i + 1] - 1))
        else:
            spans.append((lo, None))
    return spans


def _lower(a, b):
    """min of two span ends, None being unbounded."""
    return b if a is None else a if b is None else min(a, b)


class Cells:
    """The cell layout over xcuts x ycuts: bit ix*ny + iy of a mask is the
    cell xspan(ix) x yspan(iy), so an x group is a run of ny bits and a y
    stripe takes every ny-th bit.  Atom masks are built here."""

    def __init__(self, xcuts: tuple, ycuts: tuple):
        n = len(xcuts) * len(ycuts)
        if n > 1 << _BUDGET_LOG2:
            raise SizeTooLarge(f"a NATPAIR normal form would need {n} cells (limit 2**24)")
        self.xcuts, self.ycuts = xcuts, ycuts
        self._xi = {c: i for i, c in enumerate(xcuts)}
        self._yi = {c: i for i, c in enumerate(ycuts)}
        self.full = (1 << n) - 1

    def box(self, xlo, xhi, ylo, yhi) -> int:
        """[xlo, xhi] x [ylo, yhi], hi None for unbounded; every lo and
        hi + 1 must be a cut.  The product spread(x groups) * (y bits)
        has no carries, the y bits being narrower than a group."""
        ny = len(self.ycuts)
        i0, i1 = self._xi[xlo], len(self.xcuts) if xhi is None else self._xi[xhi + 1]
        j0, j1 = self._yi[ylo], ny if yhi is None else self._yi[yhi + 1]
        spread = int(("0" * (ny - 1) + "1") * (i1 - i0), 2) << i0 * ny
        return spread * ((1 << j1) - (1 << j0))

    def points(self, elems) -> int:
        """The cells of single points (a, b), each a and b a cut, set in
        one pass over a byte buffer."""
        ny, xi, yi = len(self.ycuts), self._xi, self._yi
        buf = bytearray((len(self.xcuts) * ny + 7) // 8)
        for a, b in elems:
            k = xi[a] * ny + yi[b]
            buf[k >> 3] |= 1 << (k & 7)
        return int.from_bytes(buf, "little")


@dataclass(frozen=True)
class PairGrid:
    """xcuts/ycuts are ascending and start at 1; mask holds the constant
    membership value of every cell in the Cells layout.  Every reading
    costs time linear in the number of cells."""

    xcuts: tuple
    ycuts: tuple
    mask: int

    def xspans(self):
        return _cell_spans(self.xcuts)

    def yspans(self):
        return _cell_spans(self.ycuts)

    def _bits(self) -> str:
        """The mask as '0'/'1', character ix*ny + iy for that cell."""
        return format(self.mask, "b").zfill(len(self.xcuts) * len(self.ycuts))[::-1]

    def contains(self, e) -> bool:
        a, b = e
        ix = bisect_right(self.xcuts, a) - 1
        iy = bisect_right(self.ycuts, b) - 1
        return bool(self.mask >> (ix * len(self.ycuts) + iy) & 1)

    def true_cells(self):
        xs, ys = self.xspans(), self.yspans()
        for m in re.finditer("1", self._bits()):
            ix, iy = divmod(m.start(), len(ys))
            yield xs[ix], ys[iy]

    # -- classification ----------------------------------------------

    def is_empty(self) -> bool:
        return not self.mask

    def compl(self) -> "PairGrid":
        return PairGrid(self.xcuts, self.ycuts, self.mask ^ ((1 << len(self.xcuts) * len(self.ycuts)) - 1))

    def is_finite(self) -> bool:
        """No true cell in the last x group or the last y stripe."""
        ny = len(self.ycuts)
        last_group = self.mask >> (len(self.xcuts) - 1) * ny
        return not last_group and "1" not in self._bits()[ny - 1 :: ny]

    def card(self) -> int:
        """Number of members of a finite set.  Cells partition the plane,
        so no dedup is needed."""
        total = 0
        for (xl, xh), (yl, yh) in self.true_cells():
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
        ny, bits = len(self.ycuts), self._bits()
        return IntervalSet.of(
            *(xs for ix, xs in enumerate(self.xspans()) if "1" in bits[ix * ny : ix * ny + ny])
        )

    def min_coord_incidence(self) -> IntervalSet:
        """Values of min(a, b) attained.  m is attained iff a true cell in
        the x group of m reaches up to height m (a point (m, b), b >= m),
        or one in the y stripe of m reaches out to width m."""
        ny, bits = len(self.ycuts), self._bits()
        xs, ys = self.xspans(), self.yspans()
        spans = []
        for ix, (xl, xh) in enumerate(xs):
            top = bits[ix * ny : ix * ny + ny].rfind("1")
            if top >= 0:
                spans.append((xl, _lower(xh, ys[top][1])))
        for iy, (yl, yh) in enumerate(ys):
            right = bits[iy::ny].rfind("1")
            if right >= 0:
                spans.append((yl, _lower(yh, xs[right][1])))
        return IntervalSet.of(*spans)

    def avoids_some_quadrant(self) -> bool:
        """True iff the set misses [m, oo) x [m, oo) for some m, which for
        cells means the last cell, the one unbounded both ways, is false."""
        return not self.mask >> (len(self.xcuts) * len(self.ycuts) - 1)

    def _second(self, lo: int, hi: int) -> IntervalSet:
        """Second coordinates met by the true cells of x groups lo..hi-1."""
        ny = len(self.ycuts)
        bits = self._bits()[lo * ny : hi * ny]
        return IntervalSet.of(*(ys for iy, ys in enumerate(self.yspans()) if "1" in bits[iy::ny]))

    def project_second(self, x_limit: int) -> IntervalSet:
        """Second coordinates of members with first coordinate <= x_limit."""
        return self._second(0, bisect_right(self.xcuts, x_limit))

    def cut_at(self, x: int) -> IntervalSet:
        """Second coordinates of members with first coordinate exactly x."""
        ix = bisect_right(self.xcuts, x) - 1
        return self._second(ix, ix + 1) if ix >= 0 else IntervalSet.of()
