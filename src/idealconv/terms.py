"""Symbolic set terms over the two universes.

A term is built from a closed atom vocabulary (empty, full, explicit
finite sets, tails on NAT, upper quadrants, single rows and columns on
NATPAIR, and partition blocks) combined with complement, union,
intersection and difference.  Terms denote honest infinite subsets;
membership of any single element is decidable by a tree walk, and
classification (empty / finite with exact cardinality / infinite) is
decided exactly by evaluating the term into one of two closed normal
forms:

* NAT terms evaluate to eventually periodic sets (natset.PeriodicSet);
* NATPAIR terms are constant on the cells of the breakpoint grid spanned
  by their atoms (pairset.PairGrid).

Both routes are total for the shipped vocabulary, so classification
never answers "unknown"; a missing case raises UnsupportedCombination
and is a bug by contract.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import wraps

from .errors import PreconditionViolated, UniverseMismatch, UnsupportedCombination
from .natset import PeriodicSet, pow2
from .pairset import Cells, PairGrid
from .partitions import Partition, block_contains
from .universe import Universe, check_element, elements_upto

__all__ = [
    "SetTerm",
    "Empty",
    "Full",
    "FiniteSet",
    "Tail",
    "UpperQuad",
    "Row",
    "Col",
    "Block",
    "Compl",
    "Union",
    "Inter",
    "Diff",
    "empty",
    "full",
    "finite_set",
    "tail",
    "upper_quad",
    "row",
    "col",
    "block",
    "compl",
    "union",
    "inter",
    "diff",
    "member",
    "truncate",
    "classify",
    "ClassifyResult",
    "nat_value",
    "pair_grid",
    "interval_set_to_term",
]


class SetTerm:
    """Base class; subclasses are frozen dataclasses with a universe.

    Nodes are hash-consed: the constructors below return the one live
    node for each structure, so equality and hashing are identity."""

    universe: Universe


# The unique table: (class, *fields) -> the live node with those fields.
# Child nodes sit in a key by identity; an entry goes when its node dies.
_NODES = weakref.WeakValueDictionary()


def interned(cls, *fields):
    """The one live cls(*fields), built on first use.  Every term and
    ideal constructor goes through here."""
    key = (cls, *fields)
    node = _NODES.get(key)
    if node is None:
        node = _NODES[key] = cls(*fields)
    return node


def on_node(fn):
    """Memoise fn on its first argument's own __dict__ (a term node, a
    function or a finite space), so results die with it.  One argument
    gets one slot (nat_value, pair_grid, classify, remainder_term); more
    get a dict there keyed by the rest (a function's escape terms and
    verdicts, a space's region words).  The ideals caches and the star
    rungs (a)-(c), keyed by (escape term, i, j) and shared by every
    function with that escape, stay global but bounded (ideals._MEMO_SIZE), as
    pinning shared interned nodes is load-bearing: in_ideal memoised on
    the term took finite-sweep's wall_s from 0.63-0.74 s to 1.43-1.55 s,
    and ideal memos on the ideal node took catalog-mix's warm_wall_s up
    34%.  Functions still compare by value, but no hot path hashes them."""
    slot = "_" + fn.__name__.lstrip("_")
    if fn.__code__.co_argcount == 1:

        @wraps(fn)
        def memo(t):
            try:
                return t.__dict__[slot]
            except KeyError:
                value = t.__dict__[slot] = fn(t)
                return value

        return memo

    @wraps(fn)
    def keyed(t, *key):
        try:
            return t.__dict__[slot][key]
        except KeyError:
            value = t.__dict__.setdefault(slot, {})[key] = fn(t, *key)
            return value

    return keyed


def _same_universe(ts):
    if not ts:
        raise PreconditionViolated("union and inter need at least one operand")
    u = ts[0].universe
    for t in ts[1:]:
        if t.universe is not u:
            raise UniverseMismatch("term operands live on different universes")
    return u


@dataclass(frozen=True, eq=False)
class Empty(SetTerm):
    universe: Universe


@dataclass(frozen=True, eq=False)
class Full(SetTerm):
    universe: Universe


@dataclass(frozen=True, eq=False)
class FiniteSet(SetTerm):
    universe: Universe
    elements: frozenset


@dataclass(frozen=True, eq=False)
class Tail(SetTerm):
    """{n : n >= start} on NAT."""

    start: int
    universe: Universe = field(default=Universe.NAT, init=False)


@dataclass(frozen=True, eq=False)
class UpperQuad(SetTerm):
    """{(a, b) : a >= start and b >= start} on NATPAIR."""

    start: int
    universe: Universe = field(default=Universe.NATPAIR, init=False)


@dataclass(frozen=True, eq=False)
class Row(SetTerm):
    """{(a, index) : a >= 1}: all pairs with second coordinate index."""

    index: int
    universe: Universe = field(default=Universe.NATPAIR, init=False)


@dataclass(frozen=True, eq=False)
class Col(SetTerm):
    """{(index, b) : b >= 1}: all pairs with first coordinate index."""

    index: int
    universe: Universe = field(default=Universe.NATPAIR, init=False)


@dataclass(frozen=True, eq=False)
class Block(SetTerm):
    partition: Partition
    index: int
    universe: Universe = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "universe", self.partition.universe)


@dataclass(frozen=True, eq=False)
class Compl(SetTerm):
    term: SetTerm
    universe: Universe = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "universe", self.term.universe)


@dataclass(frozen=True, eq=False)
class Union(SetTerm):
    terms: tuple
    universe: Universe = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "universe", self.terms[0].universe)


@dataclass(frozen=True, eq=False)
class Inter(SetTerm):
    terms: tuple
    universe: Universe = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "universe", self.terms[0].universe)


@dataclass(frozen=True, eq=False)
class Diff(SetTerm):
    left: SetTerm
    right: SetTerm
    universe: Universe = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "universe", self.left.universe)


# -- constructors ------------------------------------------------------


def empty(universe: Universe) -> SetTerm:
    return interned(Empty, universe)


def full(universe: Universe) -> SetTerm:
    return interned(Full, universe)


def finite_set(universe: Universe, elems) -> SetTerm:
    elems = frozenset(elems)
    for e in elems:
        check_element(universe, e)
    return interned(FiniteSet, universe, elems)


def _positive(what: str, v) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or v < 1:
        raise PreconditionViolated(f"{what} must be an integer >= 1, got {v!r}")
    return v


def tail(start: int) -> SetTerm:
    return interned(Tail, _positive("tail start", start))


def upper_quad(start: int) -> SetTerm:
    return interned(UpperQuad, _positive("upperquad start", start))


def row(index: int) -> SetTerm:
    return interned(Row, _positive("row index", index))


def col(index: int) -> SetTerm:
    return interned(Col, _positive("col index", index))


def block(partition: Partition, index: int) -> SetTerm:
    _positive("block index", index)
    if not partition.infinitely_many_infinite_blocks and partition.modulus is not None:
        if index > partition.modulus:
            raise PreconditionViolated("residue class index exceeds modulus")
    return interned(Block, partition, index)


def compl(t: SetTerm) -> SetTerm:
    return interned(Compl, t)


def union(*ts: SetTerm) -> SetTerm:
    _same_universe(ts)
    return interned(Union, ts)


def inter(*ts: SetTerm) -> SetTerm:
    _same_universe(ts)
    return interned(Inter, ts)


def diff(a: SetTerm, b: SetTerm) -> SetTerm:
    _same_universe((a, b))
    return interned(Diff, a, b)


# -- pointwise membership ----------------------------------------------


def member(t: SetTerm, e) -> bool:
    """Decide e in t by structural recursion; total for the vocabulary."""
    check_element(t.universe, e)
    return _member(t, e)


def _member(t: SetTerm, e) -> bool:
    if isinstance(t, Empty):
        return False
    if isinstance(t, Full):
        return True
    if isinstance(t, FiniteSet):
        return e in t.elements
    if isinstance(t, Tail):
        return e >= t.start
    if isinstance(t, UpperQuad):
        return e[0] >= t.start and e[1] >= t.start
    if isinstance(t, Row):
        return e[1] == t.index
    if isinstance(t, Col):
        return e[0] == t.index
    if isinstance(t, Block):
        return block_contains(t.partition, t.index, e)
    if isinstance(t, Compl):
        return not _member(t.term, e)
    if isinstance(t, Union):
        return any(_member(s, e) for s in t.terms)
    if isinstance(t, Inter):
        return all(_member(s, e) for s in t.terms)
    if isinstance(t, Diff):
        return _member(t.left, e) and not _member(t.right, e)
    raise UnsupportedCombination(f"no membership rule for {type(t).__name__}")


def truncate(t: SetTerm, bound: int):
    """Members with every coordinate <= bound, in canonical order.

    Deliberately implemented by brute enumeration over the box so that it
    is an independent route against the symbolic classification.
    """
    return [e for e in elements_upto(t.universe, bound) if _member(t, e)]


# -- evaluation to closed normal forms ---------------------------------


@on_node
def nat_value(t: SetTerm) -> PeriodicSet:
    """Evaluate a NAT term to its eventually periodic set.  Subterms are
    evaluated through this memo too, so a new term over evaluated
    subterms costs one set operation per new node."""
    if t.universe is not Universe.NAT:
        raise UniverseMismatch("nat_value requires a NAT term")
    return _nat_value(t)


def _nat_value(t: SetTerm) -> PeriodicSet:
    if isinstance(t, Empty):
        return PeriodicSet.empty()
    if isinstance(t, Full):
        return PeriodicSet.full()
    if isinstance(t, FiniteSet):
        return PeriodicSet.from_finite(t.elements)
    if isinstance(t, Tail):
        return PeriodicSet.from_tail(t.start)
    if isinstance(t, Block):
        p = t.partition
        if p.pid == "ruler":
            m = pow2(t.index)
            return PeriodicSet.from_residue(m, m >> 1)
        if p.modulus is not None:
            return PeriodicSet.from_residue(p.modulus, t.index % p.modulus)
        raise UnsupportedCombination(f"no NAT evaluation for partition {p.pid}")
    if isinstance(t, Compl):
        return nat_value(t.term).compl()
    if isinstance(t, Union):
        acc = nat_value(t.terms[0])
        for s in t.terms[1:]:
            acc = acc.union(nat_value(s))
        return acc
    if isinstance(t, Inter):
        acc = nat_value(t.terms[0])
        for s in t.terms[1:]:
            acc = acc.inter(nat_value(s))
        return acc
    if isinstance(t, Diff):
        return nat_value(t.left).diff(nat_value(t.right))
    raise UnsupportedCombination(f"no NAT evaluation rule for {type(t).__name__}")


def _boxes(t: SetTerm):
    """An infinite NATPAIR atom as boxes (xlo, xhi, ylo, yhi), a None hi
    being unbounded, whose union it is."""
    pid = t.partition.pid if isinstance(t, Block) else None
    if isinstance(t, UpperQuad):
        return ((t.start, None, t.start, None),)
    if isinstance(t, Row):
        return ((1, None, t.index, t.index),)
    if isinstance(t, Col) or pid == "columns":
        return ((t.index, t.index, 1, None),)
    if pid == "corner":
        i = t.index
        return ((i, None, i, i), (i, i, i + 1, None))
    if pid is not None:
        raise UnsupportedCombination(f"partition {pid} has no pair-grid rule")
    raise UnsupportedCombination(f"no breakpoint rule for {type(t).__name__}")


def _breaks(t: SetTerm, xs: set, ys: set):
    if isinstance(t, (Empty, Full)):
        return
    if isinstance(t, FiniteSet):
        for a, b in t.elements:
            xs.update((a, a + 1))
            ys.update((b, b + 1))
        return
    if isinstance(t, Compl):
        _breaks(t.term, xs, ys)
        return
    if isinstance(t, (Union, Inter)):
        for s in t.terms:
            _breaks(s, xs, ys)
        return
    if isinstance(t, Diff):
        _breaks(t.left, xs, ys)
        _breaks(t.right, xs, ys)
        return
    for xlo, xhi, ylo, yhi in _boxes(t):
        xs.add(xlo)
        ys.add(ylo)
        if xhi is not None:
            xs.add(xhi + 1)
        if yhi is not None:
            ys.add(yhi + 1)


@on_node
def pair_grid(t: SetTerm) -> PairGrid:
    """Evaluate a NATPAIR term to its breakpoint grid.

    Every atom is a union of cells of the grid whose cuts include every
    threshold an atom mentions, so the term is one cell mask, built
    bottom-up from the atoms' masks.
    """
    if t.universe is not Universe.NATPAIR:
        raise UniverseMismatch("pair_grid requires a NATPAIR term")
    xs, ys = {1}, {1}
    _breaks(t, xs, ys)
    cells = Cells(tuple(sorted(xs)), tuple(sorted(ys)))
    return PairGrid(cells.xcuts, cells.ycuts, _pair_mask(t, cells, {}))


def _pair_mask(t: SetTerm, cells: Cells, memo: dict) -> int:
    """t's cell mask; memo holds those of the subterms met so far, which
    hash-consing lets a term share."""
    m = memo.get(t)
    if m is not None:
        return m
    if isinstance(t, Empty):
        m = 0
    elif isinstance(t, Full):
        m = cells.full
    elif isinstance(t, FiniteSet):
        m = cells.points(t.elements)
    elif isinstance(t, Compl):
        m = cells.full ^ _pair_mask(t.term, cells, memo)
    elif isinstance(t, Union):
        m = 0
        for s in t.terms:
            m |= _pair_mask(s, cells, memo)
    elif isinstance(t, Inter):
        m = cells.full
        for s in t.terms:
            m &= _pair_mask(s, cells, memo)
    elif isinstance(t, Diff):
        m = _pair_mask(t.left, cells, memo) & ~_pair_mask(t.right, cells, memo)
    else:
        m = 0
        for box in _boxes(t):
            m |= cells.box(*box)
    memo[t] = m
    return m


def value(t: SetTerm):
    """t's normal form: nat_value on NAT, pair_grid on NATPAIR."""
    return nat_value(t) if t.universe is Universe.NAT else pair_grid(t)


def subset(a: SetTerm, b: SetTerm) -> bool:
    """a <= b, decided on the normal forms; no node is built on NAT."""
    if a.universe is Universe.NAT:
        return nat_value(a).issubset(nat_value(b))
    return pair_grid(diff(a, b)).is_empty()


# -- classification -----------------------------------------------------

_ELEMENT_LIST_CAP = 10_000


@dataclass(frozen=True)
class ClassifyResult:
    kind: str  # "empty" | "finite" | "infinite"
    cardinality: int | None = None  # exact, finite case only
    elements: tuple | None = None  # present when small enough

    def is_empty(self):
        return self.kind == "empty"

    def is_finite(self):
        return self.kind != "infinite"


@on_node
def classify(t: SetTerm) -> ClassifyResult:
    """Exact classification of the term's denotation, which counts and
    lists members: for callers that report them.  A yes/no question of
    emptiness or finiteness reads value(t) instead, inclusion subset."""
    v = value(t)
    if not v.is_finite():
        return ClassifyResult("infinite")
    n = v.card()
    if n == 0:
        return ClassifyResult("empty", 0, ())
    # count first: the listing is only built when it will be kept
    return ClassifyResult("finite", n, tuple(v.elements()) if n <= _ELEMENT_LIST_CAP else None)


# -- conversions back to terms ------------------------------------------


def interval_set_to_term(iset) -> SetTerm:
    """Rebuild a NAT term from an IntervalSet (exact)."""
    finite_elems = []
    tail_start = None
    for lo, hi in iset.spans:
        if hi is None:
            tail_start = lo
        else:
            finite_elems.extend(range(lo, hi + 1))
    parts = []
    if finite_elems:
        parts.append(finite_set(Universe.NAT, finite_elems))
    if tail_start is not None:
        parts.append(tail(tail_start))
    if not parts:
        return empty(Universe.NAT)
    return parts[0] if len(parts) == 1 else union(*parts)
