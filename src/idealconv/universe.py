"""Ground universes.

Two countable universes are supported: NAT is the positive integers
1, 2, 3, ... and NATPAIR is the set of pairs of positive integers.
Everything is 1-based; 0 is not an element of either universe.
"""

from __future__ import annotations

import enum
from math import isqrt

from .errors import UniverseMismatch


class Universe(enum.Enum):
    NAT = "nat"
    NATPAIR = "natpair"

    # Members are singletons compared by identity, so the C-level identity
    # hash agrees with equality and spares Enum.__hash__'s Python call.
    __hash__ = object.__hash__

    def __repr__(self):
        return f"Universe.{self.name}"


def is_element(universe: Universe, e) -> bool:
    if universe is Universe.NAT:
        return isinstance(e, int) and not isinstance(e, bool) and e >= 1
    return (
        isinstance(e, tuple)
        and len(e) == 2
        and all(isinstance(c, int) and not isinstance(c, bool) and c >= 1 for c in e)
    )


def check_element(universe: Universe, e):
    if not is_element(universe, e):
        raise UniverseMismatch(f"{e!r} is not an element of {universe.value}")
    return e


def elements_upto(universe: Universe, bound: int):
    """All elements with every coordinate <= bound, in canonical order."""
    if universe is Universe.NAT:
        yield from range(1, bound + 1)
    else:
        for a in range(1, bound + 1):
            for b in range(1, bound + 1):
                yield (a, b)


def diag_index(pair: tuple[int, int]) -> int:
    """Position of a pair in the diagonal sweep (1,1), (2,1), (1,2), (3,1), ...

    This is the canonical enumeration of NATPAIR; NAT is enumerated by
    identity.  Used wherever a fixed linear order on a universe is needed.
    """
    a, b = pair
    x, y = a - 1, b - 1
    t = x + y
    return t * (t + 1) // 2 + y + 1


def diag_pair(n: int) -> tuple[int, int]:
    """Inverse of diag_index."""
    m = n - 1
    t = (isqrt(8 * m + 1) - 1) // 2
    r = m - t * (t + 1) // 2
    return (t - r + 1, r + 1)


def canonical_rank(universe: Universe, e) -> int:
    """Rank of an element in the universe's canonical enumeration, from 1."""
    check_element(universe, e)
    if universe is Universe.NAT:
        return e
    return diag_index(e)
