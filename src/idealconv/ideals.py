"""Ideal catalog and decision procedures.

An ideal here is a symbolic descriptor; membership of a term is decided
by rules that are exact for every catalog combination (no sampling).
The catalog:

    fin(u)                  finite subsets of the universe
    improper(u)             the whole power set
    principal(t)            subsets of a fixed term t
    partition_ideal(p)      terms meeting finitely many blocks of p
    pringsheim()            terms avoiding some upper quadrant modulo a
                            bounded strip; equals partition_ideal(CORNER)
    uniform_product(l, k)   NATPAIR terms whose first k columns project
                            into a member of l, uniformly
    pointwise_product(l, k) every one of the first k column cuts lies in l;
                            equals uniform_product(l, k)
    pushforward(i, b)       images through a catalog bijection; equals fin
                            when i is fin
    trace_ideal(j, m)       sets whose intersection with m lies in j

For partition ideals the partition must have infinitely many infinite
blocks; residue partitions are rejected with FinitePartition.

The three "equals" are exact identities (finitely many cuts lie in l iff
their union does; a bijection maps finite sets onto finite sets), and
decisions read the canonical descriptor, their right side, through
`_normalize`.  Constructors and serialization keep the given descriptor.

`known_subset` returns True only on a proven rule; False means "not
known", not "disproven".  `prefix_unions_in_ideal` is the three-valued
question whether every finite union of leading blocks of a partition
lies in the ideal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from . import terms as T
from .bijections import Bijection, invert, preimage_term
from .errors import FinitePartition, PreconditionViolated, PreimageNotRepresentable
from .errors import SizeTooLarge, UniverseMismatch
from .partitions import CORNER, Partition
from .terms import SetTerm, pair_grid
from .universe import Universe, is_element

__all__ = [
    "Ideal",
    "Tri",
    "fin",
    "improper",
    "principal",
    "partition_ideal",
    "pringsheim",
    "uniform_product",
    "pointwise_product",
    "pushforward",
    "trace_ideal",
    "in_ideal",
    "in_filter",
    "subseteq_mod",
    "equiv_mod",
    "admissible",
    "admissible_on",
    "proper",
    "has_maximum",
    "maximum_term",
    "known_subset",
    "prefix_unions_in_ideal",
    "partition_incidence",
    "quadrant_avoidance",
]

# Entries per decision cache; agreement_sweep(4) needs 2,979 in_ideal.
_MEMO_SIZE = 1 << 14

# A product maximum spells out its low columns, and a lifted tail its low
# rows, one atom each; above this many atoms it raises SizeTooLarge unbuilt.
_MAX_ATOMS = 1 << 16


def _check_atoms(n: int, what: str) -> None:
    if n > _MAX_ATOMS:
        raise SizeTooLarge(f"a product maximum would need {n} {what} atoms (limit 2**16)")


class Tri(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


@dataclass(frozen=True, eq=False)
class Ideal:
    """Hash-consed like the terms: build ideals only through the
    constructors below, which return one node per descriptor."""

    kind: str
    universe: Universe
    set_term: Optional[SetTerm] = None
    partition: Optional[Partition] = None
    base: Optional["Ideal"] = None
    cutoff: Optional[int] = None
    bijection: Optional[Bijection] = None

    def __repr__(self):
        bits = [self.kind, self.universe.value]
        if self.set_term is not None:
            bits.append(repr(self.set_term))
        if self.partition is not None:
            bits.append(self.partition.pid)
        if self.base is not None:
            bits.append(repr(self.base))
        if self.cutoff is not None:
            bits.append(str(self.cutoff))
        if self.bijection is not None:
            bits.append(repr(self.bijection))
        return "Ideal(" + ", ".join(bits) + ")"


def _ideal(kind, universe, set_term=None, partition=None, base=None, cutoff=None, bijection=None):
    return T.interned(Ideal, kind, universe, set_term, partition, base, cutoff, bijection)


def fin(universe: Universe = Universe.NAT) -> Ideal:
    return _ideal("fin", universe)


def improper(universe: Universe = Universe.NAT) -> Ideal:
    return _ideal("improper", universe)


def principal(t: SetTerm) -> Ideal:
    return _ideal("principal", t.universe, set_term=t)


def partition_ideal(p: Partition) -> Ideal:
    if not p.infinitely_many_infinite_blocks:
        raise FinitePartition(
            f"partition {p.pid} lacks infinitely many infinite blocks"
        )
    return _ideal("partition", p.universe, partition=p)


def pringsheim() -> Ideal:
    return _ideal("pringsheim", Universe.NATPAIR)


def _product(kind: str, base: Ideal, cutoff: int) -> Ideal:
    if base.universe is not Universe.NAT:
        raise UniverseMismatch(f"{kind}: the base ideal must live on NAT")
    if not is_element(Universe.NAT, cutoff):
        raise PreconditionViolated(f"{kind} cutoff must be an integer >= 1, got {cutoff!r}")
    return _ideal(kind, Universe.NATPAIR, base=base, cutoff=cutoff)


def uniform_product(base: Ideal, cutoff: int) -> Ideal:
    return _product("uniform_product", base, cutoff)


def pointwise_product(base: Ideal, cutoff: int) -> Ideal:
    return _product("pointwise_product", base, cutoff)


def pushforward(base: Ideal, b: Bijection) -> Ideal:
    if base.universe is not b.source:
        raise UniverseMismatch("pushforward: ideal universe differs from bijection source")
    return _ideal("pushforward", b.target, base=base, bijection=b)


def trace_ideal(base: Ideal, m: SetTerm) -> Ideal:
    if base.universe is not m.universe:
        raise UniverseMismatch("trace_ideal: term universe differs from ideal universe")
    return _ideal("trace", base.universe, base=base, set_term=m)


def _normalize(i: Ideal) -> Ideal:
    """The canonical descriptor of i's family (see the module docstring)."""
    k = i.kind
    if k == "pringsheim":
        return partition_ideal(CORNER)
    if k == "pointwise_product":
        return uniform_product(i.base, i.cutoff)
    if k == "pushforward" and i.base.kind == "fin":
        return fin(i.universe)
    return i


def quadrant_avoidance(t: SetTerm) -> bool:
    """Independent membership route for the pringsheim ideal: the term,
    viewed on its breakpoint grid, avoids some upper quadrant except for
    cells with a bounded side."""
    return pair_grid(t).avoids_some_quadrant()


def partition_incidence(p: Partition, t: SetTerm):
    """Indices of blocks of p the term meets: (finite, indices or None).

    indices is a sorted tuple when finite, None when infinitely many
    blocks are met.
    """
    if t.universe is not p.universe:
        raise UniverseMismatch("partition_incidence: universe mismatch")
    if p.universe is Universe.NATPAIR:
        if p.pid == "columns":
            inc = pair_grid(t).column_incidence()
        elif p.pid == "corner":
            inc = pair_grid(t).min_coord_incidence()
        else:
            raise UniverseMismatch(f"no incidence rule for partition {p.pid}")
        return (True, tuple(inc.members())) if inc.is_finite() else (False, None)
    v = T.nat_value(t)
    if p.pid == "ruler":
        finite, idx = v.ruler_incidence()
        return (True, tuple(sorted(idx))) if finite else (False, None)
    if p.modulus is not None:
        return True, tuple(sorted(r or p.modulus for r in v.classes_mod(p.modulus)))
    raise UniverseMismatch(f"no incidence rule for partition {p.pid}")


@lru_cache(maxsize=_MEMO_SIZE)
def in_ideal(i: Ideal, t: SetTerm) -> bool:
    """Whether t lies in i, read off normal forms and block incidences: no
    rule lists t's elements, and fin, or principal on NAT, builds no node."""
    if t.universe is not i.universe:
        raise UniverseMismatch("in_ideal: term universe differs from ideal universe")
    i = _normalize(i)
    k = i.kind
    if k == "improper":
        return True
    if k == "fin":
        return T.value(t).is_finite()
    if k == "principal":
        return T.subset(t, i.set_term)
    if k == "partition":
        finite, _ = partition_incidence(i.partition, t)
        return finite
    if k == "uniform_product":
        iv = pair_grid(t).project_second(i.cutoff)
        return in_ideal(i.base, T.interval_set_to_term(iv))
    if k == "pushforward":
        return in_ideal(i.base, preimage_term(i.bijection, t))
    if k == "trace":
        return in_ideal(i.base, T.inter(t, i.set_term))
    raise AssertionError(f"unhandled ideal kind {k}")


def in_filter(i: Ideal, t: SetTerm) -> bool:
    """Membership in the dual filter: the complement lies in the ideal."""
    return in_ideal(i, T.compl(t))


def subseteq_mod(j: Ideal, a: SetTerm, b: SetTerm) -> bool:
    """a is contained in b modulo j: the part of a outside b lies in j."""
    return in_ideal(j, T.diff(a, b))


def equiv_mod(j: Ideal, a: SetTerm, b: SetTerm) -> bool:
    return subseteq_mod(j, a, b) and subseteq_mod(j, b, a)


@lru_cache(maxsize=_MEMO_SIZE)
def proper(i: Ideal) -> bool:
    return not in_ideal(i, T.full(i.universe))


@lru_cache(maxsize=_MEMO_SIZE)
def admissible(i: Ideal) -> bool:
    """All singletons belong to the ideal."""
    return admissible_on(i, T.full(i.universe))


def admissible_on(i: Ideal, m: SetTerm) -> bool:
    """Every singleton drawn from m belongs to the ideal."""
    if m.universe is not i.universe:
        raise UniverseMismatch("admissible_on: universe mismatch")
    i = _normalize(i)
    k = i.kind
    if k in ("improper", "fin", "partition"):
        return True
    if k == "principal":
        return T.subset(m, i.set_term)
    if k == "uniform_product":
        # only columns up to the cutoff constrain singletons
        iv = pair_grid(m).project_second(i.cutoff)
        return admissible_on(i.base, T.interval_set_to_term(iv))
    if k == "pushforward":
        return admissible_on(i.base, preimage_term(i.bijection, m))
    if k == "trace":
        return admissible_on(i.base, T.inter(m, i.set_term))
    raise AssertionError(f"unhandled ideal kind {k}")


@lru_cache(maxsize=_MEMO_SIZE)
def has_maximum(i: Ideal) -> bool:
    """Whether the ideal has a largest member (it is then principal as a
    family, whatever its descriptor)."""
    i = _normalize(i)
    k = i.kind
    if k in ("improper", "principal"):
        return True
    if k in ("fin", "partition"):
        return False
    if k in ("uniform_product", "pushforward"):
        return has_maximum(i.base)
    if k == "trace":
        return (not proper(i)) or has_maximum(i.base)
    raise AssertionError(f"unhandled ideal kind {k}")


def _lift_second(t: SetTerm) -> SetTerm:
    """NATPAIR term for {(a, b) : b in t} given a NAT term t."""
    if isinstance(t, T.Empty):
        return T.empty(Universe.NATPAIR)
    if isinstance(t, T.Full):
        return T.full(Universe.NATPAIR)
    if isinstance(t, T.FiniteSet):
        return T.union(*[T.row(b) for b in sorted(t.elements)]) if t.elements else T.empty(Universe.NATPAIR)
    if isinstance(t, T.Tail):
        _check_atoms(t.start - 1, "row")
        return T.compl(T.union(*[T.row(b) for b in range(1, t.start)])) if t.start > 1 else T.full(Universe.NATPAIR)
    if isinstance(t, T.Compl):
        return T.compl(_lift_second(t.term))
    if isinstance(t, T.Union):
        return T.union(*[_lift_second(s) for s in t.terms])
    if isinstance(t, T.Inter):
        return T.inter(*[_lift_second(s) for s in t.terms])
    if isinstance(t, T.Diff):
        return T.diff(_lift_second(t.left), _lift_second(t.right))
    raise PreimageNotRepresentable(f"cannot lift {type(t).__name__} to the pair universe")


@lru_cache(maxsize=_MEMO_SIZE)
def maximum_term(i: Ideal) -> Optional[SetTerm]:
    """A term for the largest member when one is representable, else None.

    None whenever has_maximum(i) is False.  has_maximum(i) may be True
    with maximum_term(i) None: existence of a maximum does not require the
    catalog to express it.
    """
    i = _normalize(i)
    k = i.kind
    if k == "improper":
        return T.full(i.universe)
    if k == "principal":
        return i.set_term
    if k in ("fin", "partition"):
        return None
    if k == "uniform_product":
        mt = maximum_term(i.base)
        if mt is None:
            return None
        try:
            lifted = _lift_second(mt)
        except PreimageNotRepresentable:
            return None
        _check_atoms(i.cutoff, "column")
        low = T.union(*[T.col(x) for x in range(1, i.cutoff + 1)])
        return T.union(T.inter(low, lifted), T.compl(low))
    if k == "pushforward":
        mt = maximum_term(i.base)
        if mt is None:
            return None
        try:
            return preimage_term(invert(i.bijection), mt)
        except PreimageNotRepresentable:
            return None
    if k == "trace":
        if not proper(i):
            return T.full(i.universe)
        mt = maximum_term(i.base)
        if mt is None:
            return None
        return T.union(mt, T.compl(i.set_term))
    raise AssertionError(f"unhandled ideal kind {k}")


@lru_cache(maxsize=_MEMO_SIZE)
def known_subset(a: Ideal, b: Ideal) -> bool:
    """True when a is provably contained in b by a catalog rule.

    False is a statement of ignorance, not of non-containment.
    """
    if a.universe is not b.universe:
        raise UniverseMismatch("known_subset: universe mismatch")
    an, bn = _normalize(a), _normalize(b)
    if an == bn:
        return True
    if not proper(bn):
        return True
    if an.kind == "principal":
        # exact: a principal ideal sits inside b iff its generator does
        return in_ideal(bn, an.set_term)
    if an.kind == "fin":
        return admissible(bn)
    if an.kind == "partition" and bn.kind == "partition":
        # finitely many columns meet finitely many corner hooks
        return an.partition.pid == "columns" and bn.partition.pid == "corner"
    if bn.kind == "trace" and known_subset(an, bn.base):
        # a subset of j is a subset of any trace of j
        return True
    if an.kind == "trace" and bn.kind == "trace" and an.set_term == bn.set_term:
        return known_subset(an.base, bn.base)
    if an.kind == "pushforward" and bn.kind == "pushforward":
        return an.bijection == bn.bijection and known_subset(an.base, bn.base)
    if an.kind == "uniform_product" and bn.kind == "uniform_product":
        return an.cutoff == bn.cutoff and known_subset(an.base, bn.base)
    return False


@lru_cache(maxsize=_MEMO_SIZE)
def prefix_unions_in_ideal(i: Ideal, p: Partition) -> Tri:
    """Does every finite union of leading blocks of p lie in i?

    TRUE and FALSE are proven; UNKNOWN is an honest gap.  Small prefixes
    are probed first, so FALSE answers come with a concrete refuting
    prefix already checked.
    """
    if p.universe is not i.universe:
        raise UniverseMismatch("prefix_unions_in_ideal: universe mismatch")
    if p.modulus is not None:
        # a residue partition's blocks together are the universe
        return Tri.FALSE if proper(i) else Tri.TRUE
    for m in (1, 2, 3, 4):
        if not in_ideal(i, T.union(*[T.block(p, b) for b in range(1, m + 1)])):
            return Tri.FALSE
    if not proper(i):
        return Tri.TRUE
    inorm = _normalize(i)
    k = inorm.kind
    if k == "principal":
        # prefixes exhaust the universe, so all of them fit only if the
        # generator is everything, and that ideal is improper
        return Tri.FALSE
    if k == "partition":
        # every prefix union is a member of partition_ideal(p), and every
        # member of it lies in some prefix union
        if p.infinitely_many_infinite_blocks and known_subset(partition_ideal(p), inorm):
            return Tri.TRUE
        return Tri.UNKNOWN
    if k == "pushforward":
        pre1 = _try_preimage(inorm.bijection, T.block(p, 1))
        pre2 = _try_preimage(inorm.bijection, T.block(p, 2))
        if (
            isinstance(pre1, T.Block)
            and isinstance(pre2, T.Block)
            and pre1.partition == pre2.partition
            and (pre1.index, pre2.index) == (1, 2)
        ):
            return prefix_unions_in_ideal(inorm.base, pre1.partition)
        return Tri.UNKNOWN
    return Tri.UNKNOWN


def _try_preimage(b, t):
    try:
        return preimage_term(b, t)
    except PreimageNotRepresentable:
        return None
