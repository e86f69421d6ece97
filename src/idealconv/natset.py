"""Exact algebra of eventually periodic subsets of the positive integers.

A PeriodicSet represents a set S by a finite part below a threshold T and
a residue pattern from T on: for n >= T, n is in S iff n mod p lies in a
fixed residue set.  Finite sets, tails {n : n >= m} and arithmetic
residue classes all live here, and the class is closed under the Boolean
operations, so every term over those atoms can be classified exactly:
the set is infinite iff the residue pattern is nonempty.

Both parts are Python-int bitmasks (bit n of `below`: n in S, for n < T;
bit r of `residues`: r in the pattern), and no other module reads them.
A Boolean operation tiles both sides to the common period and threshold
and combines them with whole-word integer operations, so its cost is
linear in threshold + period bits.  No mask may be longer than 2**24
bits (2 MiB); a set that needs one raises SizeTooLarge before it is built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd

from .errors import PreconditionViolated, SizeTooLarge

__all__ = ["PeriodicSet", "pow2", "v2"]


def v2(n: int) -> int:
    """2-adic valuation of a positive integer."""
    if n < 1:
        raise PreconditionViolated(f"v2 needs a positive integer, got {n}")
    return (n & -n).bit_length() - 1


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


_BUDGET_LOG2 = 24  # no mask is longer than 2**24 bits


def _fit(bits: int) -> int:
    """bits, checked against the mask budget before a mask that long is built."""
    if bits > 1 << _BUDGET_LOG2:
        raise SizeTooLarge(f"a NAT normal form would need a {bits}-bit mask (limit 2**24)")
    return bits


def pow2(k: int) -> int:
    """2**k as a period or modulus, refused on the exponent before the
    integer is built when a mask of 2**k bits would break the budget."""
    if k > _BUDGET_LOG2:
        raise SizeTooLarge(f"a NAT normal form would need a 2**{k}-bit mask (limit 2**24)")
    return 1 << k


def _tile(pattern: int, p: int, n: int) -> int:
    """The period-p pattern repeated out to n bits, by shift-and-or
    doubling (a repunit product would need a quadratic big-int division)."""
    out, w = pattern, p
    while w < n:
        out |= out << w
        w <<= 1
    return out & ((1 << n) - 1)


def _fold(x: int, m: int) -> int:
    """The OR of the m-bit chunks of x: bit r is set iff x has a set bit
    at a position = r (mod m).  Halving cuts keep the cost linear in x."""
    while x >> m:
        h = -(-x.bit_length() // (2 * m)) * m
        x = x & ((1 << h) - 1) | x >> h
    return x


def _bits(mask: int) -> list:
    """Positions of the set bits, ascending."""
    return [m.start() for m in re.finditer("1", bin(mask)[:1:-1])]


@dataclass(frozen=True)
class PeriodicSet:
    """Invariants: threshold >= 1, period >= 1, below is a mask inside
    bits [1, threshold), residues is a mask inside bits [0, period)."""

    threshold: int
    period: int
    residues: int
    below: int

    # -- constructors ------------------------------------------------

    @staticmethod
    def empty() -> "PeriodicSet":
        return PeriodicSet(1, 1, 0, 0)

    @staticmethod
    def full() -> "PeriodicSet":
        return PeriodicSet(1, 1, 1, 0)

    @staticmethod
    def from_finite(elems) -> "PeriodicSet":
        elems = frozenset(elems)
        if not all(isinstance(n, int) and n >= 1 for n in elems):
            raise PreconditionViolated("a finite NAT set holds integers >= 1 only")
        t = _fit(max(elems) + 1 if elems else 1)
        buf = bytearray((t + 7) // 8)
        for n in elems:
            buf[n >> 3] |= 1 << (n & 7)
        return PeriodicSet(t, 1, 0, int.from_bytes(buf, "little"))

    @staticmethod
    def from_tail(m: int) -> "PeriodicSet":
        if m < 1:
            raise PreconditionViolated(f"a tail starts at 1 or later, not {m}")
        return PeriodicSet(m, 1, 1, 0)

    @staticmethod
    def from_residue(modulus: int, r: int) -> "PeriodicSet":
        """The class {n >= 1 : n = r (mod modulus)}."""
        if modulus < 1:
            raise PreconditionViolated(f"a residue class needs a modulus >= 1, not {modulus}")
        return PeriodicSet(1, modulus, 1 << (r % _fit(modulus)), 0)

    # -- membership --------------------------------------------------

    def contains(self, n: int) -> bool:
        if n < self.threshold:
            return bool(self.below >> n & 1)
        return bool(self.residues >> (n % self.period) & 1)

    def _prefix(self, t: int) -> int:
        """The members below t, as a mask."""
        m = self.below
        if t > self.threshold:
            m |= _tile(self.residues, self.period, t) >> self.threshold << self.threshold
        return m & ((1 << t) - 1)

    # -- Boolean algebra ---------------------------------------------

    def _combine(self, other: "PeriodicSet", op) -> "PeriodicSet":
        t = _fit(max(self.threshold, other.threshold))
        p = _fit(_lcm(self.period, other.period))
        residues = op(_tile(self.residues, self.period, p), _tile(other.residues, other.period, p))
        below = op(self._prefix(t), other._prefix(t))
        return PeriodicSet(t, p, residues, below)._reduced()

    def union(self, other):
        return self._combine(other, lambda a, b: a | b)

    def inter(self, other):
        return self._combine(other, lambda a, b: a & b)

    def diff(self, other):
        return self._combine(other, lambda a, b: a & ~b)

    def issubset(self, other: "PeriodicSet") -> bool:
        """self <= other, with the budget checks of _combine and no set built."""
        t = _fit(max(self.threshold, other.threshold))
        p = _fit(_lcm(self.period, other.period))
        return not (_tile(self.residues, self.period, p) & ~_tile(other.residues, other.period, p)
                    or self._prefix(t) & ~other._prefix(t))

    def compl(self) -> "PeriodicSet":
        residues = self.residues ^ ((1 << self.period) - 1)
        below = self.below ^ ((1 << _fit(self.threshold)) - 2)
        return PeriodicSet(self.threshold, self.period, residues, below)

    def _reduced(self) -> "PeriodicSet":
        # Shrink the period to the smallest divisor under which the
        # residue pattern is shift-invariant; keeps lcm growth in check.
        p, res = self.period, self.residues
        for d in sorted(_divisors(p)):
            if d == p:
                break
            low = res & ((1 << d) - 1)
            if _tile(low, d, p) == res:
                return PeriodicSet(self.threshold, d, low, self.below)
        return self

    # -- classification ----------------------------------------------

    def is_empty(self) -> bool:
        return not (self.residues or self.below)

    def is_finite(self) -> bool:
        return not self.residues

    def card(self) -> int:
        """Number of members; only valid when the set is finite."""
        if not self.is_finite():
            raise PreconditionViolated("card of an infinite set")
        return self.below.bit_count()

    def elements(self):
        """Sorted members; only valid when the set is finite."""
        if not self.is_finite():
            raise PreconditionViolated("elements of an infinite set")
        return _bits(self.below)

    def classes_mod(self, m: int) -> frozenset:
        """{n mod m : n in S}.  Past the threshold, the residue r mod
        period meets exactly the classes mod m that are = r mod
        gcd(period, m), infinitely often (Chinese remainders)."""
        x = _fold(self.below, m)
        if self.residues:
            g = gcd(self.period, m)
            x |= _tile(_fold(self.residues, g), g, _fit(m))
        return frozenset(_bits(x))

    # -- block incidence under the dyadic valuation partition ---------

    def ruler_incidence(self):
        """Which dyadic blocks {n : v2(n) = i-1} this set meets.

        Returns (finite, indices): indices is the exact set of met block
        indices when finite, else None.  A residue class r mod p meets a
        single block when r != 0 and v2(r) < v2(p), and infinitely many
        blocks otherwise.
        """
        a = v2(self.period) if self.period % 2 == 0 else 0
        if self.residues & _tile(1, 1 << a, self.period):
            return (False, None)
        # every residue left has v2 < a, so residue and below positions
        # fall into blocks alike
        mask, i, indices = self.residues | self.below, 0, set()
        while mask:
            hit = mask & _tile(1 << (1 << i), 2 << i, mask.bit_length())
            if hit:
                indices.add(i + 1)
                mask ^= hit
            i += 1
        return (True, frozenset(indices))


def _divisors(p: int):
    out = []
    d = 1
    while d * d <= p:
        if p % d == 0:
            out.append(d)
            out.append(p // d)
        d += 1
    return out
