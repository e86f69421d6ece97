"""Additive transfer between a base ideal and an auxiliary ideal.

The property asks: for every sequence of members of the base ideal is
there a single member almost containing each of them, where "almost"
means the leftovers land in the auxiliary ideal.  Decision rules:

* base provably inside aux: the empty set almost contains everything;
* base with a largest member: that member absorbs any family outright;
* base a partition ideal, aux the finite ideal: fails, and the blocks
  themselves witness it: each block is a member, but any member meets
  only finitely many blocks, so almost all blocks survive subtraction
  with infinitely many points.

The failure witness is a concrete family; certify_failure_on_truncation
re-checks it inside a finite box by counting two independent ways (the
closed-form block census against brute enumeration of a difference
term).

pi1_search is the direct quantifier: given an explicit family and a
candidate pool, find a candidate member almost containing the family.

pi_condition_crosscheck compares four equivalent phrasings of the
property on finite universes by literal evaluation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from . import terms as T
from .errors import FamilyNotInIdeal, FinitePartition, SampleNotInIdeal
from .ideals import (
    Ideal,
    _normalize,
    has_maximum,
    in_ideal,
    known_subset,
    partition_ideal,
    partition_incidence,
    subseteq_mod,
)
from .partitions import Partition, block_count_upto
from .terms import SetTerm

__all__ = [
    "ApStatus",
    "ApVerdict",
    "BlockFamilyWitness",
    "additive_property",
    "pi1_search",
    "SearchResult",
    "refute_partition_fin",
    "certify_failure_on_truncation",
    "CertReport",
    "pi_condition_crosscheck",
    "PiCrosscheckReport",
]


class ApStatus(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class BlockFamilyWitness:
    """The family block 1, block 2, ... of a partition, refuting the
    additive property against the finite ideal."""

    partition: Partition

    def member(self, n: int) -> SetTerm:
        return T.block(self.partition, n)


@dataclass(frozen=True)
class ApVerdict:
    status: ApStatus
    rule: str
    witness: Optional[BlockFamilyWitness] = None


def additive_property(i: Ideal, j: Ideal) -> ApVerdict:
    if known_subset(i, j):
        return ApVerdict(ApStatus.HOLDS, "base inside aux: the empty set absorbs")
    if has_maximum(i):
        return ApVerdict(ApStatus.HOLDS, "largest member absorbs any family")
    i, j = _normalize(i), _normalize(j)
    if i.kind == "partition" and j.kind == "fin":
        return ApVerdict(
            ApStatus.FAILS,
            "blocks form a family no member almost contains",
            refute_partition_fin(i.partition),
        )
    return ApVerdict(ApStatus.UNKNOWN, "no decision rule applied")


@dataclass(frozen=True)
class SearchResult:
    found: bool
    witness: Optional[SetTerm] = None


def pi1_search(i: Ideal, j: Ideal, family, candidates) -> SearchResult:
    """First candidate lying in i that almost contains every family
    member modulo j.  The family must sit inside i."""
    fam = tuple(family)
    for a in fam:
        if not in_ideal(i, a):
            raise FamilyNotInIdeal(f"{a!r} is not a member of the base ideal")
    for c in candidates:
        if in_ideal(i, c) and all(subseteq_mod(j, a, c) for a in fam):
            return SearchResult(True, c)
    return SearchResult(False, None)


def refute_partition_fin(p: Partition) -> BlockFamilyWitness:
    if not p.infinitely_many_infinite_blocks:
        raise FinitePartition(f"partition {p.pid} lacks infinitely many infinite blocks")
    return BlockFamilyWitness(p)


@dataclass(frozen=True)
class CertRow:
    sample: SetTerm
    block_index: int
    overlap: int
    survivors: int
    census: int
    ok: bool


@dataclass(frozen=True)
class CertReport:
    rows: tuple
    certified: bool


def certify_failure_on_truncation(w: BlockFamilyWitness, samples, bound: int) -> CertReport:
    """Check the refutation against concrete members inside a box.

    For each sample member a: find the least block with finite overlap
    against a, then count the block's survivors after removing a inside
    the box two ways: brute enumeration of the difference term versus
    the closed-form block census minus the overlap.  The sample is
    certified when the counts agree and at least one survivor remains.
    """
    p = w.partition
    i = partition_ideal(p)
    rows = []
    for a in samples:
        if not in_ideal(i, a):
            raise SampleNotInIdeal(f"{a!r} is not a member of the partition ideal")
        # a meets only the blocks in met, so one of the first len(met) + 1
        # blocks has finite overlap with it
        _, met = partition_incidence(p, a)
        for n in range(1, len(met) + 2):
            overlap = T.value(T.inter(T.block(p, n), a))
            if overlap.is_finite():
                break
        c = overlap.card()
        survivors = len(T.truncate(T.diff(T.block(p, n), a), bound))
        inside = len(T.truncate(T.inter(T.block(p, n), a), bound))
        census = block_count_upto(p, n, bound) - inside
        ok = survivors == census and survivors >= 1 and inside <= c
        rows.append(CertRow(a, n, c, survivors, census, ok))
    return CertReport(tuple(rows), all(r.ok for r in rows))


@dataclass(frozen=True)
class PiCrosscheckReport:
    size: int
    pairs: int
    disagreements: tuple

    @property
    def ok(self) -> bool:
        return not self.disagreements


def pi_condition_crosscheck(n: int) -> PiCrosscheckReport:
    """Evaluate the four phrasings of the property literally over every
    ordered pair of ideals on an n-element set and compare."""
    from .finite import brute_pi_conditions, enumerate_ideals

    ideals = enumerate_ideals(n)
    disagreements = []
    pairs = 0
    for i in ideals:
        for j in ideals:
            pairs += 1
            vals = brute_pi_conditions(i, j)
            if len(set(vals.values())) != 1:
                disagreements.append((i, j, vals))
    return PiCrosscheckReport(n, pairs, tuple(disagreements))
