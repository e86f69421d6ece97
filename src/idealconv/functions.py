"""Symbolic functions from a universe into a codomain space.

A function is a list of (term, value spec) pieces, optionally a diagonal
family, and an optional default value:

* pieces are pairwise disjoint; on overlapping queries the first match
  wins, and pieces always take priority over the diagonal;
* Const(v) is the constant v on its piece;
* TailsTo(v) takes the value v + 1/rank(e) at element e, where rank is
  the global canonical enumeration rank of the universe.  This models a
  sequence drifting into v from above.  The rank is global, not relative
  to the piece, so restriction and pointwise subtraction commute with
  materialization;
* DiagonalFamily(p, target, scale) assigns target + scale/i on block i
  of the partition p, away from all pieces;
* the default covers a finite leftover region only.

validate() returns a report instead of raising, so malformed inputs can
be inspected; the engines require a valid function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import terms as T
from .errors import InvalidFunction, UniverseMismatch
from .partitions import Partition, block_of
from .spaces import ContinuousMap, FiniteTop, MetricLine, as_fraction, map_value
from .terms import SetTerm, classify
from .universe import Universe, canonical_rank, check_element

__all__ = [
    "Const",
    "TailsTo",
    "DiagonalFamily",
    "PiecewiseFn",
    "piecewise",
    "constant_fn",
    "validate_fn",
    "ValidationReport",
    "evaluate",
    "modify_on",
    "compose",
    "value_points",
    "has_tails_piece",
]


@dataclass(frozen=True)
class Const:
    value: object

    def __repr__(self):
        return f"Const({self.value})"


@dataclass(frozen=True)
class TailsTo:
    """Values v + drift/rank(e), approaching v along the piece."""

    value: object
    drift: Fraction = Fraction(1)

    def __repr__(self):
        if self.drift == 1:
            return f"TailsTo({self.value})"
        return f"TailsTo({self.value}, drift={self.drift})"


@dataclass(frozen=True)
class DiagonalFamily:
    """target + scale/i on block i of the partition, i = 1, 2, ..."""

    partition: Partition
    target: Fraction
    scale: Fraction = Fraction(1)

    def value_on_block(self, i: int) -> Fraction:
        return self.target + self.scale / i


@dataclass(frozen=True)
class PiecewiseFn:
    universe: Universe
    codomain: object
    pieces: tuple = ()
    diagonal: Optional[DiagonalFamily] = None
    default: object = None


def piecewise(universe, codomain, pieces, diagonal=None, default=None) -> PiecewiseFn:
    f = PiecewiseFn(universe, codomain, tuple((t, s) for t, s in pieces), diagonal, default)
    rep = validate_fn(f)
    if not rep.ok:
        raise InvalidFunction("; ".join(rep.problems))
    return f


def constant_fn(universe, codomain, v) -> PiecewiseFn:
    return piecewise(universe, codomain, [(T.full(universe), Const(v))])


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple = ()


def _value_ok(codomain, v) -> bool:
    return isinstance(codomain, (MetricLine, FiniteTop)) and codomain.contains_value(v)


def validate_fn(f: PiecewiseFn) -> ValidationReport:
    problems = []
    metric = isinstance(f.codomain, MetricLine)
    for t, s in f.pieces:
        if t.universe is not f.universe:
            problems.append(f"piece term {t!r} lives on {t.universe.value}")
        if isinstance(s, Const):
            if not _value_ok(f.codomain, s.value):
                problems.append(f"constant value {s.value!r} is outside the codomain")
        elif isinstance(s, TailsTo):
            if not metric:
                problems.append("TailsTo pieces need the metric line codomain")
            elif not _value_ok(f.codomain, s.value):
                problems.append(f"tail value {s.value!r} is outside the codomain")
            elif as_fraction(s.drift) == 0:
                problems.append("TailsTo drift must be nonzero")
        else:
            problems.append(f"unknown piece spec {s!r}")
    for i in range(len(f.pieces)):
        for j in range(i + 1, len(f.pieces)):
            ti, tj = f.pieces[i][0], f.pieces[j][0]
            if ti.universe is not f.universe or tj.universe is not f.universe:
                continue
            if not classify(T.inter(ti, tj)).is_empty():
                problems.append(f"pieces {i} and {j} overlap")
    if f.diagonal is not None:
        d = f.diagonal
        if not metric:
            problems.append("diagonal families need the metric line codomain")
        if d.partition.universe is not f.universe:
            problems.append("diagonal partition lives on the wrong universe")
        if not d.partition.infinitely_many_infinite_blocks:
            problems.append("diagonal partition must have infinitely many infinite blocks")
        if as_fraction(d.scale) == 0:
            problems.append("diagonal scale must be nonzero")
    else:
        terms = [t for t, _ in f.pieces if t.universe is f.universe]
        rest = T.compl(T.union(*terms)) if terms else T.full(f.universe)
        cls = classify(rest)
        if cls.kind == "infinite":
            problems.append("pieces leave an infinite region uncovered and no diagonal")
        elif cls.kind == "finite" and f.default is None:
            problems.append("finite uncovered region needs a default value")
        if f.default is not None and not _value_ok(f.codomain, f.default):
            problems.append(f"default value {f.default!r} is outside the codomain")
    return ValidationReport(not problems, tuple(problems))


def has_tails_piece(f: PiecewiseFn) -> bool:
    return any(isinstance(s, TailsTo) for _, s in f.pieces)


def evaluate(f: PiecewiseFn, e):
    """Value of f at element e.  Pieces in order, then diagonal, then
    default."""
    check_element(f.universe, e)
    for t, s in f.pieces:
        if T.member(t, e):
            if isinstance(s, Const):
                return s.value
            return as_fraction(s.value) + as_fraction(s.drift) / canonical_rank(f.universe, e)
    if f.diagonal is not None:
        return f.diagonal.value_on_block(block_of(f.diagonal.partition, e))
    if f.default is not None:
        return f.default
    raise InvalidFunction(f"no piece covers {e!r}")


@T.on_node
def remainder_term(f: PiecewiseFn) -> SetTerm:
    """Region covered by neither pieces nor diagonal (diagonal covers
    everything outside the pieces)."""
    if f.diagonal is not None:
        return T.empty(f.universe)
    terms = [t for t, _ in f.pieces]
    return T.compl(T.union(*terms)) if terms else T.full(f.universe)


def modify_on(f: PiecewiseFn, m: SetTerm, x) -> PiecewiseFn:
    """The function equal to f on m and constant x elsewhere."""
    if m.universe is not f.universe:
        raise UniverseMismatch("modify_on: set universe differs from function universe")
    pieces = [(T.inter(t, m), s) for t, s in f.pieces]
    pieces.append((T.compl(m), Const(x)))
    return PiecewiseFn(f.universe, f.codomain, tuple(pieces), f.diagonal, f.default)


def compose(f: PiecewiseFn, m: ContinuousMap) -> PiecewiseFn:
    """Postcompose with a continuous map of codomains."""
    if isinstance(f.codomain, MetricLine):
        if m.affine is None:
            raise UniverseMismatch("metric-valued functions compose with affine maps")
        a, b = m.affine
        if a == 0:
            return PiecewiseFn(f.universe, m.target, ((T.full(f.universe), Const(b)),))
        pieces = []
        for t, s in f.pieces:
            if isinstance(s, Const):
                pieces.append((t, Const(a * as_fraction(s.value) + b)))
            else:
                pieces.append(
                    (t, TailsTo(a * as_fraction(s.value) + b, a * as_fraction(s.drift)))
                )
        diag = None
        if f.diagonal is not None:
            d = f.diagonal
            diag = DiagonalFamily(d.partition, a * as_fraction(d.target) + b, a * as_fraction(d.scale))
        default = None if f.default is None else a * as_fraction(f.default) + b
        return PiecewiseFn(f.universe, m.target, tuple(pieces), diag, default)
    if m.table is None:
        raise UniverseMismatch("finite-valued functions compose with table maps")
    if m.source != f.codomain:
        raise UniverseMismatch("composition source space differs from the codomain")
    pieces = [(t, Const(map_value(m, s.value))) for t, s in f.pieces]
    default = None if f.default is None else map_value(m, f.default)
    return PiecewiseFn(f.universe, m.target, tuple(pieces), None, default)


def value_points(f: PiecewiseFn):
    """Candidate limit values: piece values, default, diagonal target."""
    out = []
    for _, s in f.pieces:
        if s.value not in out:
            out.append(s.value)
    if f.default is not None and f.default not in out:
        out.append(f.default)
    if f.diagonal is not None and f.diagonal.target not in out:
        out.append(f.diagonal.target)
    return out
