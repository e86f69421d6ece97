"""Catalog bijections between the universes, with preimage tables.

Pushing an ideal forward through a bijection b needs, for every term
atom A over the target universe, a source term denoting b^-1(A).  Two
bijections ship:

* pairing      -- the diagonal sweep NAT -> NATPAIR.  Only finite and
                  cofinite data transfers exactly: the preimage of a row
                  or quadrant under the sweep is not eventually periodic,
                  so those atoms raise PreimageNotRepresentable.

* ruler_corner -- maps the dyadic block {n : v2(n) = i-1} of NAT onto
                  corner block i of NATPAIR in increasing order,
                  alternating between the two arms of the hook.  Every
                  NATPAIR atom then pulls back to a finite set plus an
                  arithmetic residue class, so the preimage table is
                  total.

The k-th member of dyadic block i is (2k-1) * 2^(i-1).  Corner block i is
enumerated corner first, then alternating arms:

    position 1      -> (i, i)
    position 2t     -> (i + t, i)      (first-coordinate arm)
    position 2t + 1 -> (i, i + t)      (second-coordinate arm)

so inside block i the first-coordinate arm occupies the residue class
3 * 2^(i-1) (mod 2^(i+1)) together with the corner point 2^(i-1), and the
second-coordinate arm plus corner is the class 2^(i-1) (mod 2^(i+1)).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import terms as T
from .errors import PreimageNotRepresentable, UniverseMismatch
from .natset import pow2, v2
from .partitions import CORNER, RULER, residues
from .universe import Universe, check_element, diag_index, diag_pair

__all__ = [
    "Bijection",
    "PAIRING",
    "RULER_CORNER",
    "bijection_by_name",
    "apply",
    "invert",
    "preimage_term",
    "pair_encode",
    "pair_decode",
]


@dataclass(frozen=True)
class Bijection:
    name: str
    source: Universe
    target: Universe
    inverted: bool = False

    def __repr__(self):
        return f"Bijection({self.name}{'^-1' if self.inverted else ''})"


PAIRING = Bijection("pairing", Universe.NAT, Universe.NATPAIR)
RULER_CORNER = Bijection("ruler_corner", Universe.NAT, Universe.NATPAIR)


def bijection_by_name(name: str) -> Bijection:
    base, inv = (name[:-4], True) if name.endswith("_inv") else (name, False)
    for b in (PAIRING, RULER_CORNER):
        if b.name == base:
            return invert(b) if inv else b
    raise ValueError(f"unknown bijection {name!r}")


def invert(b: Bijection) -> Bijection:
    return Bijection(b.name, b.target, b.source, not b.inverted)


def pair_encode(n: int) -> tuple:
    """Diagonal-sweep image of n: 1 -> (1,1), 2 -> (2,1), 3 -> (1,2), ..."""
    check_element(Universe.NAT, n)
    return diag_pair(n)


def pair_decode(e: tuple) -> int:
    check_element(Universe.NATPAIR, e)
    return diag_index(e)


def _ruler_corner_encode(n: int) -> tuple:
    i = v2(n) + 1
    k = ((n >> (i - 1)) + 1) >> 1
    if k == 1:
        return (i, i)
    if k % 2 == 0:
        return (i + k // 2, i)
    return (i, i + k // 2)


def _ruler_corner_decode(e: tuple) -> int:
    a, b = e
    i = min(a, b)
    if a == b:
        k = 1
    elif b == i:
        k = 2 * (a - i)
    else:
        k = 2 * (b - i) + 1
    return (2 * k - 1) << (i - 1)


def apply(b: Bijection, e):
    """Forward image of a source element."""
    check_element(b.source, e)
    if b.name == "pairing":
        return diag_index(e) if b.inverted else diag_pair(e)
    if b.inverted:
        return _ruler_corner_decode(e)
    return _ruler_corner_encode(e)


def _back_elem(b: Bijection):
    return lambda e: apply(invert(b), e)


def preimage_term(b: Bijection, t: T.SetTerm) -> T.SetTerm:
    """A source-universe term denoting the preimage of t under b.

    Raises PreimageNotRepresentable when some atom of t has no source
    term form; postcondition otherwise: n is in the result iff
    apply(b, n) is in t.
    """
    if t.universe is not b.target:
        raise UniverseMismatch("preimage_term: term is not over the bijection's target")
    return _pre(b, t)


def _pre(b: Bijection, t: T.SetTerm) -> T.SetTerm:
    if isinstance(t, T.Empty):
        return T.empty(b.source)
    if isinstance(t, T.Full):
        return T.full(b.source)
    if isinstance(t, T.FiniteSet):
        back = _back_elem(b)
        return T.finite_set(b.source, [back(e) for e in t.elements])
    if isinstance(t, T.Compl):
        return T.compl(_pre(b, t.term))
    if isinstance(t, T.Union):
        return T.union(*[_pre(b, s) for s in t.terms])
    if isinstance(t, T.Inter):
        return T.inter(*[_pre(b, s) for s in t.terms])
    if isinstance(t, T.Diff):
        return T.diff(_pre(b, t.left), _pre(b, t.right))
    return _pre_atom(b, t)


def _pre_atom(b: Bijection, t: T.SetTerm) -> T.SetTerm:
    name = b.name + ("_inv" if b.inverted else "")

    if name == "pairing":
        # only element-wise data transfers exactly through the sweep
        raise PreimageNotRepresentable(
            f"{type(t).__name__} has no eventually periodic preimage under pairing"
        )

    if name == "pairing_inv":
        if isinstance(t, T.Tail):
            below = [diag_pair(n) for n in range(1, t.start)]
            return T.compl(T.finite_set(Universe.NATPAIR, below))
        raise PreimageNotRepresentable(
            f"{type(t).__name__} has no rectangular preimage under pairing^-1"
        )

    if name == "ruler_corner":
        if isinstance(t, T.UpperQuad):
            m = t.start
            if m == 1:
                return T.full(Universe.NAT)
            # quadrant [m, oo)^2 is the union of corner blocks m, m+1, ...
            # whose dyadic preimage is the multiples of 2^(m-1)
            q = pow2(m - 1)
            return T.block(residues(q), q)
        if isinstance(t, T.Block):
            if t.partition.pid == "corner":
                return T.block(RULER, t.index)
            if t.partition.pid == "columns":
                return _pre_col(t.index)
            raise PreimageNotRepresentable(
                f"partition {t.partition.pid} blocks have no ruler_corner preimage rule"
            )
        if isinstance(t, T.Col):
            return _pre_col(t.index)
        if isinstance(t, T.Row):
            return _pre_row(t.index)
        raise PreimageNotRepresentable(
            f"{type(t).__name__} has no ruler_corner preimage rule"
        )

    # ruler_corner_inv: preimages under the decode direction are the
    # forward images; tails and dyadic blocks transfer, general residue
    # classes do not.
    if isinstance(t, T.Tail):
        below = [_ruler_corner_encode(n) for n in range(1, t.start)]
        return T.compl(T.finite_set(Universe.NATPAIR, below))
    if isinstance(t, T.Block):
        p = t.partition
        if p.pid == "ruler":
            return T.block(CORNER, t.index)
        if p.modulus is not None:
            m, j = p.modulus, t.index % p.modulus
            if m & (m - 1) == 0 and m >= 2:
                half = m >> 1
                if j == 0:
                    # multiples of 2^a = dyadic blocks a+1, a+2, ... = quadrant
                    return T.upper_quad(v2(m) + 1)
                if j == half:
                    return T.block(CORNER, v2(m))
            raise PreimageNotRepresentable(
                f"residue class {j} mod {m} is not a union of corner blocks"
            )
    raise PreimageNotRepresentable(
        f"{type(t).__name__} has no ruler_corner^-1 preimage rule"
    )


def _pre_col(j: int) -> T.SetTerm:
    """Preimage of column j: the corner point and second-coordinate arm of
    block j (class 2^(j-1) mod 2^(j+1)) plus the finitely many points
    (j, b) with b < j that fall into lower blocks."""
    m = pow2(j + 1)
    low = [_ruler_corner_decode((j, b)) for b in range(1, j)]
    cls = T.block(residues(m), m >> 2)
    if not low:
        return cls
    return T.union(T.finite_set(Universe.NAT, low), cls)


def _pre_row(j: int) -> T.SetTerm:
    """Preimage of row j: the first-coordinate arm of block j (class
    3 * 2^(j-1) mod 2^(j+1)), the corner point 2^(j-1), and the points
    (a, j) with a < j from lower blocks."""
    m = pow2(j + 1)
    low = [_ruler_corner_decode((a, j)) for a in range(1, j)]
    low.append(m >> 2)
    cls = T.block(residues(m), 3 * (m >> 2))
    return T.union(T.finite_set(Universe.NAT, low), cls)
