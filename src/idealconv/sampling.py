"""Seeded generators for terms and elements, plus the deterministic
catalog of named ideals and the symbolic fixture corpus driven by the
consistency sweeps.

Generators take an explicit random.Random so callers control seeds;
everything else here is built from literals and is reproducible
run-to-run by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import terms as T
from .bijections import RULER_CORNER
from .convergence import diagonal_function
from .functions import (
    Const,
    DiagonalFamily,
    PiecewiseFn,
    TailsTo,
    constant_fn,
    has_tails_piece,
    piecewise,
)
from .ideals import (
    Ideal,
    admissible,
    fin,
    improper,
    partition_ideal,
    principal,
    pringsheim,
    pushforward,
    trace_ideal,
    uniform_product,
)
from .partitions import COLUMNS, CORNER, RULER, Partition, residues
from .spaces import METRIC_LINE, sierpinski
from .universe import Universe

__all__ = [
    "random_element",
    "random_term",
    "random_partition_member",
    "Fixture",
    "fixture_corpus",
]


def random_element(rng: random.Random, universe: Universe):
    if universe is Universe.NAT:
        return rng.randint(1, 60)
    return (rng.randint(1, 15), rng.randint(1, 15))


def _random_nat_atom(rng: random.Random) -> T.SetTerm:
    roll = rng.randrange(12)
    if roll == 0:
        return T.empty(Universe.NAT)
    if roll == 1:
        return T.full(Universe.NAT)
    if roll <= 4:
        k = rng.randint(1, 6)
        return T.finite_set(Universe.NAT, [rng.randint(1, 40) for _ in range(k)])
    if roll <= 7:
        return T.tail(rng.randint(1, 20))
    if roll <= 9:
        return T.block(RULER, rng.randint(1, 4))
    m = rng.choice((2, 3, 4, 6))
    return T.block(residues(m), rng.randint(1, m))


def _random_pair_atom(rng: random.Random) -> T.SetTerm:
    roll = rng.randrange(14)
    if roll == 0:
        return T.empty(Universe.NATPAIR)
    if roll == 1:
        return T.full(Universe.NATPAIR)
    if roll <= 4:
        k = rng.randint(1, 5)
        elems = [(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(k)]
        return T.finite_set(Universe.NATPAIR, elems)
    if roll <= 6:
        return T.upper_quad(rng.randint(1, 8))
    if roll <= 8:
        return T.row(rng.randint(1, 8))
    if roll <= 10:
        return T.col(rng.randint(1, 8))
    if roll <= 12:
        return T.block(COLUMNS, rng.randint(1, 8))
    return T.block(CORNER, rng.randint(1, 8))


def random_term(rng: random.Random, universe: Universe, depth: int = 3) -> T.SetTerm:
    """Random closed term; depth bounds the operator nesting."""
    atom = _random_nat_atom if universe is Universe.NAT else _random_pair_atom
    if depth <= 0 or rng.random() < 0.4:
        return atom(rng)
    op = rng.randrange(4)
    if op == 0:
        return T.compl(random_term(rng, universe, depth - 1))
    a = random_term(rng, universe, depth - 1)
    b = random_term(rng, universe, depth - 1)
    if op == 1:
        return T.union(a, b)
    if op == 2:
        return T.inter(a, b)
    return T.diff(a, b)


def random_partition_member(
    rng: random.Random, p: Partition, max_blocks: int = 3, max_index: int = 5
) -> T.SetTerm:
    """A random member of the partition ideal of p: a union of a few
    whole blocks and a finite set, which meets only finitely many
    blocks."""
    hi = max_index
    if p.modulus is not None:
        hi = min(hi, p.modulus)
    n = rng.randint(0, max_blocks)
    idxs = rng.sample(range(1, hi + 1), min(n, hi))
    parts = [T.block(p, i) for i in sorted(idxs)]
    k = rng.randint(0, 4)
    if k:
        parts.append(
            T.finite_set(p.universe, [random_element(rng, p.universe) for _ in range(k)])
        )
    if not parts:
        return T.empty(p.universe)
    return T.union(*parts)


@dataclass(frozen=True)
class Fixture:
    name: str
    fn: PiecewiseFn
    base: Ideal
    aux: Ideal
    x: object


def _nat_functions():
    odd = T.block(residues(2), 1)
    even = T.block(residues(2), 2)
    head = T.finite_set(Universe.NAT, [1, 2, 3, 4, 5])
    half = Fraction(1, 2)
    return [
        ("const0", constant_fn(Universe.NAT, METRIC_LINE, 0), [Fraction(0), Fraction(1)]),
        (
            "alltails",
            piecewise(Universe.NAT, METRIC_LINE, [(T.full(Universe.NAT), TailsTo(0))]),
            [Fraction(0)],
        ),
        (
            "parity",
            piecewise(Universe.NAT, METRIC_LINE, [(odd, Const(1)), (even, Const(0))]),
            [Fraction(0), Fraction(1)],
        ),
        (
            "headtail",
            piecewise(
                Universe.NAT,
                METRIC_LINE,
                [(head, Const(7)), (T.compl(head), TailsTo(2))],
            ),
            [Fraction(2)],
        ),
        (
            "halfjump",
            piecewise(
                Universe.NAT,
                METRIC_LINE,
                [(T.tail(10), Const(half)), (T.compl(T.tail(10)), Const(5))],
            ),
            [half],
        ),
        ("rulerdiag", diagonal_function(RULER, 0), [Fraction(0), Fraction(1)]),
        (
            "rulerdiag-shift",
            piecewise(
                Universe.NAT,
                METRIC_LINE,
                [(T.finite_set(Universe.NAT, [1, 2, 3]), Const(9))],
                diagonal=DiagonalFamily(RULER, Fraction(1), Fraction(-1)),
            ),
            [Fraction(1)],
        ),
    ]


def _pair_functions():
    uq3 = T.upper_quad(3)
    c1 = T.col(1)
    return [
        ("coldiag", diagonal_function(COLUMNS, 0), [Fraction(0), Fraction(1)]),
        ("cornerdiag", diagonal_function(CORNER, 0), [Fraction(0)]),
        (
            "quadtails",
            piecewise(
                Universe.NATPAIR,
                METRIC_LINE,
                [(uq3, TailsTo(1)), (T.compl(uq3), Const(1))],
            ),
            [Fraction(1)],
        ),
        (
            "colsplit",
            piecewise(
                Universe.NATPAIR,
                METRIC_LINE,
                [(c1, Const(0)), (T.compl(c1), Const(1))],
            ),
            [Fraction(0), Fraction(1)],
        ),
    ]


def _nat_pairs():
    odd = T.block(residues(2), 1)
    f = fin(Universe.NAT)
    mac = partition_ideal(RULER)
    return [
        ("fin-fin", f, f),
        ("mac-fin", mac, f),
        ("fin-mac", f, mac),
        ("ptail-fin", principal(T.tail(10)), f),
        ("trace-fin", trace_ideal(f, odd), f),
        ("improper-fin", improper(Universe.NAT), f),
    ]


def _pair_pairs():
    f = fin(Universe.NATPAIR)
    uni = partition_ideal(COLUMNS)
    return [
        ("fin-fin", f, f),
        ("uni-fin", uni, f),
        ("prg-fin", pringsheim(), f),
        ("corner-uni", partition_ideal(CORNER), uni),
        ("uniprod-fin", uniform_product(fin(Universe.NAT), 2), f),
        ("push-fin", pushforward(partition_ideal(RULER), RULER_CORNER), f),
    ]


def _sierpinski_fixtures():
    odd = T.block(residues(2), 1)
    even = T.block(residues(2), 2)
    sp = sierpinski()
    f = piecewise(Universe.NAT, sp, [(odd, Const("a")), (even, Const("b"))])
    out = []
    for pname, i, j in (_nat_pairs()[0], _nat_pairs()[1]):
        for x in ("a", "b"):
            out.append(Fixture(f"sierp/{pname}/x={x}", f, i, j, x))
    return out


def fixture_corpus() -> tuple:
    """Deterministic symbolic fixtures (function, base ideal, auxiliary
    ideal, target).  TailsTo pieces are only paired with admissible
    ideals, keeping every fixture decidable by the plain convergence
    check."""
    out = []
    for fns, pairs in (
        (_nat_functions(), _nat_pairs()),
        (_pair_functions(), _pair_pairs()),
    ):
        for fname, f, targets in fns:
            for pname, i, j in pairs:
                if has_tails_piece(f) and not (admissible(i) and admissible(j)):
                    continue
                for x in targets:
                    out.append(Fixture(f"{fname}/{pname}/x={x}", f, i, j, x))
    out.extend(_sierpinski_fixtures())
    return tuple(out)
