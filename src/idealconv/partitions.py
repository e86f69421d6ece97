"""Catalog of decidable partitions of the two universes.

Each partition splits its universe into blocks indexed 1, 2, 3, ...; the
catalog records, per partition, the block of an element, exact block
sizes under truncation, and a bound guaranteeing a prescribed number of
block members, so truncation arguments never guess.

Shipped partitions:

* columns  -- block i of NATPAIR is {i} x N.
* corner   -- block i of NATPAIR is the hook {(n, i) : n >= i} united
              with {(i, k) : k >= i}; the block of (a, b) is min(a, b),
              and the upper quadrant [m, oo)^2 is exactly the union of
              blocks m, m+1, ...
* ruler    -- block i of NAT is {n : v2(n) = i - 1}, the odd multiples
              of 2^(i-1).
* residues(m) -- block i of NAT is {n : n = i (mod m)}.  Only m blocks,
              so this one is flagged as having finitely many blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionViolated
from .natset import v2
from .universe import Universe, check_element, is_element

__all__ = [
    "Partition",
    "COLUMNS",
    "CORNER",
    "RULER",
    "residues",
    "partition_by_id",
    "block_of",
    "block_contains",
    "block_count_upto",
    "bound_for_count",
]


@dataclass(frozen=True)
class Partition:
    pid: str
    universe: Universe
    infinitely_many_infinite_blocks: bool
    modulus: int | None = None  # residues only

    def __repr__(self):
        return f"Partition({self.pid})"


COLUMNS = Partition("columns", Universe.NATPAIR, True)
CORNER = Partition("corner", Universe.NATPAIR, True)
RULER = Partition("ruler", Universe.NAT, True)


def residues(m: int) -> Partition:
    if not is_element(Universe.NAT, m):
        raise PreconditionViolated(f"residue modulus must be an integer >= 1, got {m!r}")
    return Partition(f"residues:{m}", Universe.NAT, False, modulus=m)


def partition_by_id(pid: str) -> Partition:
    if pid == "columns":
        return COLUMNS
    if pid == "corner":
        return CORNER
    if pid == "ruler":
        return RULER
    if pid.startswith("residues:"):
        return residues(int(pid.split(":", 1)[1]))
    raise ValueError(f"unknown partition id {pid!r}")


def block_of(p: Partition, e) -> int:
    check_element(p.universe, e)
    if p.pid == "columns":
        return e[0]
    if p.pid == "corner":
        return min(e)
    if p.pid == "ruler":
        return v2(e) + 1
    # residues: classes are 1-based, class m holds the multiples of m
    m = p.modulus
    r = e % m
    return r if r != 0 else m


def block_contains(p: Partition, i: int, e) -> bool:
    return block_of(p, e) == i


def block_count_upto(p: Partition, i: int, bound: int) -> int:
    """Exact number of members of block i with all coordinates <= bound."""
    if i < 1 or bound < 0:
        raise PreconditionViolated(f"block index must be >= 1 and bound >= 0, got {i}, {bound}")
    if p.pid == "columns":
        return bound if i <= bound else 0
    if p.pid == "corner":
        return 2 * (bound - i) + 1 if i <= bound else 0
    if p.pid == "ruler":
        q = bound >> (i - 1)
        return (q + 1) // 2
    m = p.modulus
    if i > m or i > bound:
        return 0
    return (bound - i) // m + 1


def bound_for_count(p: Partition, i: int, k: int) -> int:
    """A truncation bound under which block i has at least k members."""
    if i < 1 or k < 1:
        raise PreconditionViolated(f"block index and count must be >= 1, got {i}, {k}")
    if p.modulus is not None and i > p.modulus:
        raise PreconditionViolated(f"residue class index {i} exceeds modulus {p.modulus}")
    if p.pid == "columns":
        b = max(i, k)
    elif p.pid == "corner":
        b = i + (k - 1 + 1) // 2
    elif p.pid == "ruler":
        b = (2 * k - 1) << (i - 1)
    else:
        b = i + (k - 1) * p.modulus
    assert block_count_upto(p, i, b) >= k
    return b
