"""Convergence along an ideal, and the two-ideal star variant.

A function f converges to x along the ideal i when every neighborhood
of x pulls the complement of its preimage into i.  Decisions are exact
for the catalog:

* escape sets only grow as the neighborhood shrinks, and the smallest
  ones share one escape set: the regions whose value lies outside the
  kernel of x, the intersection of its neighborhoods.  That is the
  smallest open around x on a finite codomain and {x} on the metric
  line, so one check decides.  TailsTo pieces perturb escapes by finite
  sets only, which is why they require an admissible ideal
  (AdmissibilityRequired otherwise);
* diagonal families at the target reduce to the prefix-union question
  for the partition; away from the target small balls around x meet
  only the block whose value is x, if there is one.

Wherever escapes stabilize, the largest escape set is the escape term.
x lies in every neighborhood of x, so f overwritten with x outside m has
escape term (escape of f) & m: rungs (c) and (e) ask in_ideal(j,
escape & m) and build no modified function; verify_witness still builds
one, as a re-check.  So rungs (a)-(c) are a function of (escape, i, j),
cached globally and bounded like the ideals caches, and every function
with that escape shares one result; a diagonal at its own target, or
TailsTo pieces meeting an inadmissible ideal, keep the checks on f.
Escape terms (per x) and verdicts (per (i, x)) are memoised on f itself
through terms.on_node, so they die with f.

star_converges(f, i, j, x) asks for m in the dual filter of i with the
modification of f outside m j-convergent to x.  The decision ladder:

  (a) f already j-converges: witness is the full set.
  (b) j provably inside i and f fails i-convergence: impossible.
  (c) i has a largest member: modifying on exactly that member is the
      best possible move, so its outcome decides both ways.
  (d) additive transfer: the additive property for (i, j) plus
      i-convergence yields a witness built from the off-target pieces.
  (e) search over unions of whole pieces that lie in i for the least
      working bitmask over piece positions, greedily, since the union of
      all eligible pieces dominates and working unions are up-closed.
  (f) diagonal refutation: over a matching partition ideal with the
      finite ideal as auxiliary, a diagonal family never star-converges
      to its target: beyond the finite block incidence of any candidate
      complement, a whole block survives with values bounded away.

Witnesses returned by any branch re-verify by construction;
verify_witness re-runs the definition.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import terms as T
from .additivity import ApStatus, additive_property
from .errors import AdmissibilityRequired, NotStarConvergent, PreconditionViolated, UniverseMismatch
from .functions import (
    Const,
    DiagonalFamily,
    PiecewiseFn,
    TailsTo,
    has_tails_piece,
    modify_on,
    remainder_term,
    value_points,
)
from .ideals import (
    _MEMO_SIZE,
    Ideal,
    Tri,
    _normalize,
    admissible,
    in_filter,
    in_ideal,
    known_subset,
    maximum_term,
    prefix_unions_in_ideal,
)
from .partitions import Partition
from .spaces import FiniteTop, MetricLine, as_fraction
from .terms import SetTerm
from .universe import Universe

__all__ = [
    "Verdict",
    "Witness",
    "StarResult",
    "converges",
    "limits",
    "star_converges",
    "verify_witness",
    "decompose",
    "gap_example",
    "diagonal_function",
]


class Verdict(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Witness:
    m: SetTerm
    note: str = ""


@dataclass(frozen=True)
class StarResult:
    verdict: Verdict
    witness: Optional[Witness]
    reason: str


def _check_target(f: PiecewiseFn, x):
    if isinstance(f.codomain, FiniteTop):
        if x not in f.codomain.points:
            raise PreconditionViolated(f"{x!r} is not a point of the codomain")
        return x
    if isinstance(f.codomain, MetricLine):
        return as_fraction(x)
    raise PreconditionViolated(f"unsupported codomain {f.codomain!r}")


def _union(universe, ts):
    return T.union(*ts) if ts else T.empty(universe)


def _regions(f: PiecewiseFn) -> tuple:
    """(term, value) for each piece, then the default's region when it is
    nonempty.  The diagonal's region is left to its callers."""
    out = tuple((t, s.value) for t, s in f.pieces)
    if f.default is not None and not T.value(remainder_term(f)).is_empty():
        out += ((remainder_term(f), f.default),)
    return out


def _piece_union(f: PiecewiseFn) -> SetTerm:
    return _union(f.universe, [t for t, _ in f.pieces])


def _piece_escape(f: PiecewiseFn, x) -> list:
    """Regions whose value lies outside the kernel of x, the intersection
    of its neighborhoods: the smallest open around x on a finite space,
    {x} on the line.  TailsTo pieces escape modulo a finite fuzz, which
    admissibility absorbs."""
    kernel = f.codomain.min_nbhd(x) if isinstance(f.codomain, FiniteTop) else {x}
    return [t for t, v in _regions(f) if v not in kernel]


@T.on_node
def _escape(f: PiecewiseFn, x):
    """The largest escape set of f around x, memoised on f per target:
    the regions whose value lies outside the kernel of x, which every
    small enough neighborhood of x lets escape (modulo a finite set for
    TailsTo pieces).  None for a diagonal at its own target, whose
    escapes keep growing as the ball shrinks."""
    esc, d = _piece_escape(f, x), f.diagonal
    if d is not None:
        delta = x - as_fraction(d.target)
        if delta == 0:
            return None
        # away from the target small balls around x hold one block at
        # most: block c/delta, when that is a positive integer, has the value x
        q = as_fraction(d.scale) / delta
        keep = [T.block(d.partition, int(q))] if q.denominator == 1 and q >= 1 else []
        esc.append(T.diff(T.diff(T.full(f.universe), _union(f.universe, keep)), _piece_union(f)))
    # one region is its own escape, not a one-operand union
    return esc[0] if len(esc) == 1 else _union(f.universe, esc)


def _converges_at_target(f: PiecewiseFn, i: Ideal, x: Fraction) -> Verdict:
    # block values approach x, so escapes along the diagonal are the
    # leading blocks: the prefix-union question for the partition,
    # asked only on the region the pieces leave to the diagonal
    if not in_ideal(i, _union(f.universe, _piece_escape(f, x))):
        return Verdict.NO
    pu = T.value(_piece_union(f))
    live = pu.compl()
    if live.is_empty() or (live.is_finite() and admissible(i)):
        return Verdict.YES
    pv = prefix_unions_in_ideal(i, f.diagonal.partition)
    if pv is Tri.TRUE:
        return Verdict.YES
    if pv is Tri.FALSE:
        if pu.is_empty() or (pu.is_finite() and admissible(i)):
            return Verdict.NO
    return Verdict.UNKNOWN


def _require_admissible(f: PiecewiseFn, i: Ideal) -> None:
    if isinstance(f.codomain, MetricLine) and has_tails_piece(f) and not admissible(i):
        raise AdmissibilityRequired("TailsTo pieces need an admissible ideal")


def _along(i: Ideal, esc: SetTerm) -> Verdict:
    return Verdict.YES if in_ideal(i, esc) else Verdict.NO


def converges(f: PiecewiseFn, i: Ideal, x) -> Verdict:
    """Does f converge to x along the ideal i?  Exact on the catalog;
    UNKNOWN only through an undecided prefix-union question."""
    if f.universe is not i.universe:
        raise UniverseMismatch("converges: function and ideal universes differ")
    x = _check_target(f, x)
    return _converges_cached(f, i, x)


@T.on_node
def _converges_cached(f: PiecewiseFn, i: Ideal, x) -> Verdict:
    _require_admissible(f, i)
    esc = _escape(f, x)
    if esc is None:
        return _converges_at_target(f, i, x)
    return _along(i, esc)


def _converges_overwritten(f: PiecewiseFn, m: SetTerm, j: Ideal, x) -> Verdict:
    """converges(modify_on(f, m, x), j, x) without building the modified
    function: x lies in every neighborhood of x, so its escape set is the
    escape set of f cut down to the kept region m."""
    _require_admissible(f, j)
    esc = _escape(f, x)
    if esc is None:
        return _converges_at_target(modify_on(f, m, x), j, x)
    return _along(j, T.inter(esc, m))


def _decided(check, *args) -> Verdict:
    """check(*args), UNKNOWN where TailsTo pieces meet an inadmissible ideal."""
    try:
        return check(*args)
    except AdmissibilityRequired:
        return Verdict.UNKNOWN


def limits(f: PiecewiseFn, i: Ideal):
    """Limit points of f along i.

    For a finite codomain all points are candidates.  On the metric line
    the candidates are the declared values (piece values, default,
    diagonal target): an improper ideal makes every rational a limit,
    and any proper one confines limits to the closure of the value set,
    within which only declared values can be limits for catalog
    functions.  Entries with UNKNOWN verdicts are omitted.
    """
    if isinstance(f.codomain, FiniteTop):
        cands = list(f.codomain.points)
    else:
        cands = sorted({as_fraction(v) for v in value_points(f)})
    return tuple(x for x in cands if converges(f, i, x) is Verdict.YES)


def verify_witness(f: PiecewiseFn, i: Ideal, j: Ideal, x, w: Witness) -> bool:
    """Re-run the definition: w.m in the dual filter of i, and the
    modification of f outside w.m j-converges to x."""
    if not in_filter(i, w.m):
        return False
    return converges(modify_on(f, w.m, x), j, x) is Verdict.YES


def _eligible_pieces(f: PiecewiseFn, i: Ideal):
    """Piece terms (plus the default region) individually inside i.  Any
    union of pieces lying in i consists of such pieces, by heredity."""
    return [t for t, _ in _regions(f) if in_ideal(i, t)]


def _subset_search(f: PiecewiseFn, i: Ideal, j: Ideal, x) -> Optional[StarResult]:
    """Search unions of whole eligible pieces as overwrite regions.

    Overwriting more of the function with x only shrinks escapes, so the
    working unions are up-closed: if the union of all eligible pieces
    fails, every one fails.  Else the least working nonzero bitmask (bit
    b = piece position b) takes n checks: clear bits from the highest
    down, keeping one cleared iff the mask with every lower bit set works.
    """
    eligible = _eligible_pieces(f, i)
    if not eligible:
        return None

    def kept(mask):
        return T.compl(_union(f.universe, [t for b, t in enumerate(eligible) if mask >> b & 1]))

    mask = (1 << len(eligible)) - 1
    vmax = _decided(_converges_overwritten, f, kept(mask), j, x)
    if vmax is Verdict.UNKNOWN:
        return None
    if vmax is Verdict.NO:
        return StarResult(Verdict.UNKNOWN, None,
                          "no union of pieces inside the base ideal works as an overwrite region")
    for b in reversed(range(len(eligible))):
        trial = mask & ~(1 << b)
        if trial and _converges_overwritten(f, kept(trial), j, x) is Verdict.YES:
            mask = trial
    w = Witness(kept(mask), "union of pieces inside the base ideal")
    if verify_witness(f, i, j, x, w):
        return StarResult(Verdict.YES, w, "piece-union overwrite region")
    return None


def _diagonal_refutation(f: PiecewiseFn, i: Ideal, j: Ideal, x) -> Optional[StarResult]:
    if f.diagonal is None or not isinstance(f.codomain, MetricLine):
        return None
    d = f.diagonal
    if as_fraction(x) != as_fraction(d.target):
        return None
    if _normalize(j).kind != "fin" or _normalize(i).kind != "partition":
        return None
    if f.pieces and not T.value(_piece_union(f)).is_finite():
        return None
    return StarResult(
        Verdict.NO,
        None,
        "any candidate region misses only finitely many blocks of the "
        "partition, and a surviving block keeps infinitely many points "
        "whose values stay a fixed distance from the target, which the "
        "finite ideal cannot absorb",
    )


_ALREADY_CONVERGENT = {
    u: StarResult(Verdict.YES, Witness(T.full(u), "no modification needed"),
                  "already convergent along the auxiliary ideal")
    for u in Universe
}
_REFINES_NO = StarResult(Verdict.NO, None, "the auxiliary ideal refines the base ideal, so star "
                         "convergence would force base convergence, which fails")
_MAXIMUM_NO = StarResult(Verdict.NO, None, "overwriting the largest member is the strongest "
                         "modification available, and it fails")


def _first_rungs(conv, over, i: Ideal, j: Ideal):
    """Rungs (a)-(c), reading f only through conv(k), its convergence along
    k, and over(m), its convergence along j once overwritten with x outside
    m.  Returns the decision or None, and whether a check was undecided."""
    v = conv(j)
    if v is Verdict.YES:
        return _ALREADY_CONVERGENT[i.universe], False
    seen_unknown = v is Verdict.UNKNOWN
    if known_subset(j, i):
        vi = conv(i)
        if vi is Verdict.NO:
            return _REFINES_NO, seen_unknown
        seen_unknown |= vi is Verdict.UNKNOWN
    mt = maximum_term(i)
    if mt is not None:
        w = Witness(T.compl(mt), "complement of the largest member")
        vm = over(w.m)
        if vm is Verdict.YES:
            return StarResult(Verdict.YES, w, "overwrite on the largest member"), seen_unknown
        if vm is Verdict.NO:
            return _MAXIMUM_NO, seen_unknown
        seen_unknown = True
    return None, seen_unknown


@lru_cache(maxsize=_MEMO_SIZE)
def _star_on_escape(esc: SetTerm, i: Ideal, j: Ideal) -> Optional[StarResult]:
    """Rungs (a)-(c) for every function whose stable escape set is esc,
    which is all they read of it; undecided checks cannot arise here."""
    return _first_rungs(lambda k: _along(k, esc), lambda m: _along(j, T.inter(esc, m)), i, j)[0]


def star_converges(f: PiecewiseFn, i: Ideal, j: Ideal, x) -> StarResult:
    """Decide whether some m in the dual filter of i makes the
    modification of f outside m j-convergent to x."""
    if not (f.universe is i.universe is j.universe):
        raise UniverseMismatch("star_converges: universes differ")
    x = _check_target(f, x)
    tails = isinstance(f.codomain, MetricLine) and has_tails_piece(f)
    esc = None if tails and not (admissible(i) and admissible(j)) else _escape(f, x)
    if esc is not None:
        res, seen_unknown = _star_on_escape(esc, i, j), False
    else:
        res, seen_unknown = _first_rungs(lambda k: _decided(_converges_cached, f, k, x),
                                         lambda m: _decided(_converges_overwritten, f, m, j, x), i, j)
    if res is not None:
        return res

    ap = additive_property(i, j)
    if ap.status is ApStatus.HOLDS:
        vi = _decided(_converges_cached, f, i, x)
        if vi is Verdict.YES:
            off = [t for t, v in _regions(f) if v != x]
            if f.diagonal is not None:
                off.append(T.compl(_piece_union(f)))
            b = _union(f.universe, off)
            if in_ideal(i, b):
                w = Witness(T.compl(b), "complement of the off-target region")
                try:
                    if verify_witness(f, i, j, x, w):
                        return StarResult(
                            Verdict.YES, w, "additive transfer of base convergence"
                        )
                except AdmissibilityRequired:
                    pass
        elif vi is Verdict.UNKNOWN:
            seen_unknown = True

    res = _subset_search(f, i, j, x)
    if res is not None and res.verdict is Verdict.YES:
        return res

    ref = _diagonal_refutation(f, i, j, x)
    if ref is not None:
        return ref

    reason = "no decision rule applied"
    if res is not None:
        reason = res.reason
    if seen_unknown:
        reason += "; some subordinate convergence questions were undecided"
    return StarResult(Verdict.UNKNOWN, None, reason)


def decompose(f: PiecewiseFn, i: Ideal, j: Ideal, x):
    """Split f as g + h with g j-convergent to x and h supported inside
    a member of i (h vanishes on the witness region).

    Requires the metric codomain and a successful star decision;
    otherwise NotStarConvergent.  Returns (g, h, witness).
    """
    if not isinstance(f.codomain, MetricLine):
        raise PreconditionViolated("decompose needs the metric line codomain")
    x = as_fraction(x)
    res = star_converges(f, i, j, x)
    if res.verdict is not Verdict.YES:
        raise NotStarConvergent(res.reason)
    m = res.witness.m
    g = modify_on(f, m, x)
    # h = f - g: zero on m, f - x off m
    off = T.compl(m)
    pieces = [(T.inter(t, off), _shift_spec(s, x)) for t, s in f.pieces]
    diag = None
    if f.diagonal is not None:
        d = f.diagonal
        # off-m diagonal points keep target - x + scale/i; on-m points are
        # covered by the zero piece below, which takes priority
        diag = DiagonalFamily(d.partition, as_fraction(d.target) - x, as_fraction(d.scale))
    pieces.insert(0, (m, Const(Fraction(0))))
    default = None
    if f.default is not None:
        default = as_fraction(f.default) - x
    h = PiecewiseFn(f.universe, f.codomain, tuple(pieces), diag, default)
    return g, h, res.witness


def _shift_spec(s, x: Fraction):
    if isinstance(s, Const):
        return Const(as_fraction(s.value) - x)
    return TailsTo(as_fraction(s.value) - x, as_fraction(s.drift))


def gap_example(i: Ideal, j: Ideal, space, x, y, a: SetTerm) -> PiecewiseFn:
    """A function star-convergent to x over (i, j) yet not i-convergent:
    value y on the gap set a (a member of j outside i), x elsewhere.

    Preconditions: a in j, a not in i, and some neighborhood of x avoids
    y.  Postconditions are asserted before returning.
    """
    if a.universe is not i.universe or i.universe is not j.universe:
        raise UniverseMismatch("gap_example: universes differ")
    if not in_ideal(j, a):
        raise PreconditionViolated("the gap set must belong to the auxiliary ideal")
    if in_ideal(i, a):
        raise PreconditionViolated("the gap set must stay outside the base ideal")
    if isinstance(space, FiniteTop):
        if x not in space.points or y not in space.points:
            raise PreconditionViolated("x and y must be points of the space")
        if y in space.min_nbhd(x):
            raise PreconditionViolated("every neighborhood of x contains y")
    else:
        x, y = as_fraction(x), as_fraction(y)
        if x == y:
            raise PreconditionViolated("x and y must differ")
    f = PiecewiseFn(
        i.universe,
        space,
        ((a, Const(y)), (T.compl(a), Const(x))),
    )
    assert converges(f, j, x) is Verdict.YES
    assert converges(f, i, x) is Verdict.NO
    return f


def diagonal_function(p: Partition, target, scale=1) -> PiecewiseFn:
    """target + scale/i on block i of p, over the metric line."""
    from .errors import FinitePartition
    from .spaces import METRIC_LINE

    if not p.infinitely_many_infinite_blocks:
        raise FinitePartition(f"partition {p.pid} lacks infinitely many infinite blocks")
    d = DiagonalFamily(p, as_fraction(target), as_fraction(scale))
    return PiecewiseFn(p.universe, METRIC_LINE, (), d, None)
