"""Codomain spaces: the rational line with its metric, and explicit
finite topological spaces.

MetricLine carries exact Fraction arithmetic; the neighborhood base at x
is the balls {y : |y - x| < 1/k} for k = 1, 2, ...  FiniteTop is a
validated finite topology on labeled points; every point has a smallest
open neighborhood, which makes convergence a single check per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import NotContinuous, PreconditionViolated

__all__ = [
    "MetricLine",
    "FiniteTop",
    "METRIC_LINE",
    "finite_top",
    "discrete",
    "indiscrete",
    "sierpinski",
    "ContinuousMap",
    "affine_map",
    "table_map",
    "map_value",
    "as_fraction",
]


def as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    raise PreconditionViolated(f"expected a rational value, got {v!r}")


@dataclass(frozen=True)
class MetricLine:
    """The rational line under |x - y|."""

    def contains_value(self, v) -> bool:
        return isinstance(v, Fraction) or (isinstance(v, int) and not isinstance(v, bool))

    def __repr__(self):
        return "MetricLine()"


METRIC_LINE = MetricLine()


@dataclass(frozen=True)
class FiniteTop:
    """Finite topology: points are labels, opens are frozensets of labels."""

    points: tuple
    opens: frozenset

    def contains_value(self, v) -> bool:
        return v in self.points

    def min_nbhd(self, x) -> frozenset:
        """Smallest open set containing x; exists in any finite topology."""
        out = frozenset(self.points)
        for o in self.opens:
            if x in o:
                out &= o
        return out

    def is_hausdorff(self) -> bool:
        for x in self.points:
            for y in self.points:
                if x == y:
                    continue
                if not any(
                    x in u and y in v and not (u & v)
                    for u in self.opens
                    for v in self.opens
                ):
                    return False
        return True


def _distinct(points) -> tuple:
    pts = tuple(points)
    if len(set(pts)) != len(pts):
        raise PreconditionViolated("duplicate points")
    return pts


def finite_top(points, opens) -> FiniteTop:
    pts = _distinct(points)
    ops = frozenset(frozenset(o) for o in opens)
    universe = frozenset(pts)
    if frozenset() not in ops or universe not in ops:
        raise PreconditionViolated("opens must include the empty set and the whole space")
    for o in ops:
        if not o <= universe:
            raise PreconditionViolated(f"open {set(o)} uses unknown points")
    for a in ops:
        for b in ops:
            if a & b not in ops or a | b not in ops:
                raise PreconditionViolated("opens are not closed under union/intersection")
    return FiniteTop(pts, ops)


def discrete(points) -> FiniteTop:
    pts = _distinct(points)
    subsets = []
    for mask in range(1 << len(pts)):
        subsets.append(frozenset(p for i, p in enumerate(pts) if mask >> i & 1))
    return FiniteTop(pts, frozenset(subsets))


def indiscrete(points) -> FiniteTop:
    pts = _distinct(points)
    return FiniteTop(pts, frozenset({frozenset(), frozenset(pts)}))


def sierpinski() -> FiniteTop:
    return finite_top(("a", "b"), [set(), {"a"}, {"a", "b"}])


@dataclass(frozen=True)
class ContinuousMap:
    """Map between codomain spaces: a finite table, or x -> a*x + b on
    the line."""

    source: object
    target: object
    table: Optional[tuple] = None
    affine: Optional[tuple] = None

    def __call__(self, v):
        return map_value(self, v)


def map_value(m: ContinuousMap, v):
    if m.affine is not None:
        a, b = m.affine
        return a * as_fraction(v) + b
    for k, w in m.table:
        if k == v:
            return w
    raise PreconditionViolated(f"{v!r} is outside the map's source")


def affine_map(a, b) -> ContinuousMap:
    return ContinuousMap(METRIC_LINE, METRIC_LINE, affine=(as_fraction(a), as_fraction(b)))


def table_map(source: FiniteTop, target: FiniteTop, mapping) -> ContinuousMap:
    """Finite map validated for continuity: preimages of opens are open."""

    table = dict(mapping)
    if set(table) != set(source.points):
        raise PreconditionViolated("mapping must cover exactly the source points")
    for w in table.values():
        if w not in target.points:
            raise PreconditionViolated(f"value {w!r} is outside the target space")
    for o in target.opens:
        pre = frozenset(p for p in source.points if table[p] in o)
        if pre not in source.opens:
            raise NotContinuous(
                f"preimage of {set(o)} is {set(pre)}, not open in the source"
            )
    items = tuple((p, table[p]) for p in source.points)
    return ContinuousMap(source, target, table=items)
