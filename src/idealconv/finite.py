"""Finite-universe oracle: exhaustive ground truth on small models.

Universes here are {0, ..., n-1}; subsets are bitmasks.  On a finite
universe the union of all members of an ideal is itself a member, so
every ideal is the full power set of its largest member: there are
exactly 2^n of them, one per generator mask.  enumerate_ideals builds
them directly; tests cross-validate against a brute closure filter.

Topologies are enumerated by filtering all families of subsets for the
closure axioms.  Convergence, star convergence, the additive property,
and the four property phrasings are evaluated by literal loops over the
definitions; nothing here consults the symbolic engine.  The families
the phrasings quantify over are enumerated once per base ideal, and the
selection DP walks them: each family's achievable unions extend its
parent's (all but its last member) by one step.

A model (space, sequence fn, point x) depends on no ideal, so its region
words are computed once and memoised on the space.  The word of a kept
region m has 2^n bits: bit g is set iff every escape of fn from an open
around x, cut down to m, lies inside generator g; it is the AND over
the escapes e of sup[e & m] (sup[a]: the generators containing a), kept
at bit offset m * 2^n of one int.  brute_i_limits reads the full
region's word; brute_ihj walks the regions whose complement lies in the
base generator, ascending; brute_metric_ihj reads its one escape's words.

The encode_* helpers embed a finite model into the symbolic side: the
universe maps to 1..n inside NAT, the ideal to a principal ideal whose
generator also swallows the tail beyond n, and a sequence to singleton
pieces plus a constant tail at the candidate limit.  Modifications of
the embedded model only ever matter on 1..n, which is why the embedding
preserves both convergence and star verdicts.

lemma_suite evaluates the structural facts the toolkit relies on, each
quantified exhaustively over a small size.  It first fills three tables
for every space s, sequence f (its position in _all_fns) and point x:
lim_t[s][f][x] from _limit_row (bit g: x is a limit under generator g),
lim[s][f][g], its transpose (the limit set as a point mask), and
star[s][f][x] from _star_row (bit gi << n | gj: the brute_ihj verdict,
the OR of the words of every region whose complement lies in gi, not
its closed form at the smallest such region).  Each claim then checks
all ideals of one instance with a few word operations on those rows;
the continuous-image claim reads every space's limit rows point by
point, gathered once per map into the rows of the images.  The set bits
of a failed test name the violations in the literal loops' order, and
the claims whose tests lose that order rerun their literal loop on the
failed instance.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from . import terms as T
from .errors import SizeTooLarge
from .functions import Const, PiecewiseFn
from .ideals import Ideal, principal
from .spaces import FiniteTop
from .universe import Universe

__all__ = [
    "FiniteIdeal",
    "FiniteSpace",
    "enumerate_ideals",
    "enumerate_topologies",
    "brute_i_limits",
    "brute_ihj",
    "brute_ap",
    "brute_pi_conditions",
    "brute_metric_limits",
    "brute_metric_ihj",
    "continuous_tables",
    "encode_ideal",
    "encode_space",
    "encode_fn",
    "lemma_suite",
    "ClaimResult",
    "SuiteReport",
    "agreement_sweep",
    "AgreementReport",
    "crosscheck",
    "CrosscheckReport",
]


def _submasks(m: int):
    out = []
    s = m
    while True:
        out.append(s)
        if s == 0:
            return out
        s = (s - 1) & m


@dataclass(frozen=True)
class FiniteIdeal:
    """Ideal on {0..n-1}: the power set of the generator mask."""

    n: int
    gen: int

    def contains(self, mask: int) -> bool:
        return mask & ~self.gen == 0

    def family(self):
        return sorted(_submasks(self.gen))

    def is_proper(self) -> bool:
        return self.gen != (1 << self.n) - 1

    def is_admissible(self) -> bool:
        return self.gen == (1 << self.n) - 1

    def is_maximal(self) -> bool:
        full = (1 << self.n) - 1
        comp = full & ~self.gen
        return comp != 0 and comp & (comp - 1) == 0


def enumerate_ideals(n: int):
    """All ideals on an n-element set, one per generator mask, in mask
    order."""
    if n > 5:
        raise SizeTooLarge("ideal enumeration is supported up to 5 points")
    if n < 1:
        raise SizeTooLarge("need at least one point")
    return [FiniteIdeal(n, g) for g in range(1 << n)]


@dataclass(frozen=True)
class FiniteSpace:
    """Topology on {0..m-1}; opens are bitmasks including 0 and full."""

    m: int
    opens: tuple

    def min_nbhd(self, x: int) -> int:
        out = (1 << self.m) - 1
        for u in self.opens:
            if u >> x & 1:
                out &= u
        return out

    def is_hausdorff(self) -> bool:
        for x in range(self.m):
            for y in range(x + 1, self.m):
                if not any(
                    u >> x & 1 and v >> y & 1 and not u & v
                    for u in self.opens
                    for v in self.opens
                ):
                    return False
        return True


@lru_cache(maxsize=None)
def enumerate_topologies(m: int):
    """All labeled topologies on m points, by filtering every family of
    subsets for the closure axioms."""
    if m > 4:
        raise SizeTooLarge("topology enumeration is supported up to 4 points")
    if m < 1:
        raise SizeTooLarge("need at least one point")
    full = (1 << m) - 1
    subsets = list(range(full + 1))
    out = []
    for fam_mask in range(1 << len(subsets)):
        if not (fam_mask >> 0 & 1 and fam_mask >> full & 1):
            continue
        fam = [s for s in subsets if fam_mask >> s & 1]
        ok = True
        for a in fam:
            for b in fam:
                if not (fam_mask >> (a | b) & 1 and fam_mask >> (a & b) & 1):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(FiniteSpace(m, tuple(fam)))
    return tuple(out)


@lru_cache(maxsize=None)
def _supersets(n: int) -> tuple:
    """sup[a]: the 2^n-bit word whose bit g is set iff mask a lies inside
    generator g."""
    ng = 1 << n
    return tuple(sum(1 << g for g in range(ng) if not a & ~g) for a in range(ng))


@lru_cache(maxsize=None)
def _escape_words(esc: int, n: int) -> int:
    """The region words of one escape: the word of region m is
    sup[esc & m], the generators holding what of the escape m keeps (the
    overwritten part sits at x, inside every open around x)."""
    sup = _supersets(n)
    return sum(sup[esc & m] << (m << n) for m in range(1 << n))


@T.on_node
def _words_at(sp: FiniteSpace, fn: tuple, x: int) -> int:
    """The region words of the model (sp, fn, x), packed: bit m << n | g
    is set iff every escape of fn from an open around x, cut down to m,
    lies inside generator g.  Memoised on the space by (fn, x)."""
    n = len(fn)
    words = (1 << (1 << 2 * n)) - 1
    for u in sp.opens:
        if u >> x & 1:
            words &= _escape_words(sum(1 << k for k, v in enumerate(fn) if not u >> v & 1), n)
    return words


@lru_cache(maxsize=None)
def _eligible(n: int) -> tuple:
    """For each base generator gi, a spread mask with bit m << n set for
    each region m whose complement lies in gi."""
    full = (1 << n) - 1
    return tuple(sum(1 << (m << n) for m in range(full + 1) if m | gi == full) for gi in range(full + 1))


def _first_region(words: int, i: FiniteIdeal, j: FiniteIdeal):
    """The first eligible region m (ascending) whose word holds j: the
    lowest set bit of the eligible regions' j bits."""
    hits = words >> j.gen & _eligible(i.n)[i.gen]
    return (True, ((hits & -hits).bit_length() - 1) >> i.n) if hits else (False, None)


def _limit_row(fn: tuple, sp: FiniteSpace, x: int) -> int:
    """The word of the full region: bit g is set iff x is a limit under g."""
    n = len(fn)
    return _words_at(sp, fn, x) >> (((1 << n) - 1) << n)


def brute_i_limits(fn: tuple, i: FiniteIdeal, sp: FiniteSpace):
    """Literal definition: x is a limit when every open around x has an
    escape set inside the ideal."""
    return [x for x in range(sp.m) if _limit_row(fn, sp, x) >> i.gen & 1]


def brute_ihj(fn: tuple, i: FiniteIdeal, j: FiniteIdeal, sp: FiniteSpace, x: int):
    """Literal search for a modification region: the first m (ascending
    as a bitmask) whose complement lies in the base ideal and whose
    modified sequence j-converges to x."""
    return _first_region(_words_at(sp, fn, x), i, j)


@lru_cache(maxsize=None)
def _low_blocks(n: int) -> tuple:
    """Per bit k, the 2^n-bit blocks at the regions without bit k."""
    ng = 1 << n
    return tuple(sum(((1 << ng) - 1) << (m << n) for m in range(ng) if not m >> k & 1) for k in range(n))


def _star_row(fn: tuple, sp: FiniteSpace, x: int) -> int:
    """Every brute_ihj verdict of the model (sp, fn, x) as one int: bit
    gi << n | gj is set iff some region m whose complement lies in gi has
    gj in its word, the OR of the words over all those m.  The OR over the
    supersets of each region is taken one bit at a time; each block then
    moves from the region full ^ gi to gi, one bit at a time."""
    words = _words_at(sp, fn, x)
    n = len(fn)
    low = _low_blocks(n)
    for k in range(n):
        words |= words >> (1 << k << n) & low[k]
    for k in range(n):
        words = (words & low[k]) << (1 << k << n) | words >> (1 << k << n) & low[k]
    return words


def brute_ap(i: FiniteIdeal, j: FiniteIdeal) -> bool:
    """Literal first phrasing: one member almost containing the whole
    family, quantified over the full family of the base ideal."""
    fam = i.family()
    for a in fam:
        if all((b & ~a) & ~j.gen == 0 for b in fam):
            return True
    return False


def _selections(i: FiniteIdeal, j: FiniteIdeal, families) -> dict:
    """Per family (a tuple, after its parent, all but its last member): is
    there a per-member replacement inside the base ideal, each within the
    aux ideal of its original, whose union stays in the base ideal?  Dynamic
    programming over achievable unions, one step per family."""
    fam_i = i.family()
    cands, reach = {}, {(): {0}}
    for f in families:
        if f not in reach:
            a = f[-1]
            if a not in cands:
                cands[a] = [b for b in fam_i if (b ^ a) & ~j.gen == 0]
            reach[f] = {u | b for u in reach[f[:-1]] for b in cands[a]}
    return {f: any(u & ~i.gen == 0 for u in r) for f, r in reach.items()}


def _disjoint_families(masks):
    """All families of pairwise disjoint nonempty masks, as tuples in
    ascending order."""
    out = [()]
    masks = [m for m in masks if m]

    def rec(start: int, used: int, acc):
        for idx in range(start, len(masks)):
            m = masks[idx]
            if m & used:
                continue
            acc.append(m)
            out.append(tuple(acc))
            rec(idx + 1, used | m, acc)
            acc.pop()

    rec(0, 0, [])
    return out


def _chains(masks):
    """All nonempty chains of nonempty masks under inclusion, ascending."""
    out = []
    masks = sorted(m for m in masks if m)

    def rec(last: int, acc):
        for m in masks:
            if m > last and m & last == last and m != last:
                acc.append(m)
                out.append(tuple(acc))
                rec(m, acc)
                acc.pop()

    for m in masks:
        out.append((m,))
        rec(m, [m])
    return out


@T.on_node
def _pi_families(i: FiniteIdeal) -> tuple:
    """The prefixes of the full family (the last is p3's), the disjoint
    families and the chains of the base ideal, memoised on it."""
    fam = i.family()
    return [tuple(fam[:k]) for k in range(1, len(fam) + 1)], _disjoint_families(fam), _chains(fam)


def brute_pi_conditions(i: FiniteIdeal, j: FiniteIdeal) -> dict:
    """The four phrasings of the additive property, evaluated literally:

    p1: a single member almost contains the full family;
    p3: any family admits an in-ideal selection with union in the ideal;
    p4: same, quantified over disjoint families;
    p6: same, quantified over nondecreasing families (chains).
    """
    prefixes, disjoint, chains = _pi_families(i)
    ok = _selections(i, j, prefixes + disjoint + chains)
    p4, p6 = all(ok[d] for d in disjoint), all(ok[c] for c in chains)
    return {"p1": brute_ap(i, j), "p3": ok[prefixes[-1]], "p4": p4, "p6": p6}


def _metric_escape(values: tuple, x) -> int:
    """The entries differing from x, which every small ball around x lets escape."""
    return sum(1 << k for k, v in enumerate(values) if v != x)


def brute_metric_limits(values: tuple, i: FiniteIdeal):
    """x is a limit iff its escape mask lies in the ideal."""
    return [x for x in sorted(set(values)) if i.contains(_metric_escape(values, x))]


def brute_metric_ihj(values: tuple, i: FiniteIdeal, j: FiniteIdeal, x):
    return _first_region(_escape_words(_metric_escape(values, x), i.n), i, j)


@lru_cache(maxsize=None)
def _value_tables(m1: int, m2: int) -> tuple:
    """Every value table {0..m1-1} -> {0..m2-1}, by code in base m2, and
    pre[a][o], the codes (as bits) of the tables under which the preimage
    of the point mask a of the target is o."""
    tables, pre = [], [[0] * (1 << m1) for _ in range(1 << m2)]
    for code in range(m2 ** m1):
        tbl, c = [], code
        for _ in range(m1):
            tbl.append(c % m2)
            c //= m2
        tables.append(tuple(tbl))
        for a, row in enumerate(pre):
            row[sum(1 << p for p, y in enumerate(tbl) if a >> y & 1)] |= 1 << code
    return tables, pre


@lru_cache(maxsize=None)
def _continuous_codes(sp1: FiniteSpace, sp2: FiniteSpace) -> tuple:
    """The codes of the continuous maps sp1 -> sp2, ascending: for each
    open of sp2, the codes whose preimage of it is some open of sp1 form
    one bitset, and a map is continuous iff its code is in every one."""
    pre, ok = _value_tables(sp1.m, sp2.m)[1], -1
    for u in sp2.opens:
        ok &= sum(pre[u][o] for o in sp1.opens)
    return tuple(_bits(ok))


def continuous_tables(sp1: FiniteSpace, sp2: FiniteSpace):
    """All continuous maps sp1 -> sp2 as value tuples: every open's
    preimage is an open of sp1."""
    tables = _value_tables(sp1.m, sp2.m)[0]
    return tuple(tables[c] for c in _continuous_codes(sp1, sp2))


# --- embedding into the symbolic engine ---


def encode_ideal(i: FiniteIdeal) -> Ideal:
    """Principal ideal on NAT generated by the generator's elements
    (shifted to 1..n) together with the whole tail beyond n."""
    elems = [k + 1 for k in range(i.n) if i.gen >> k & 1]
    gen = T.union(T.finite_set(Universe.NAT, elems), T.tail(i.n + 1))
    return principal(gen)


@lru_cache(maxsize=None)
def encode_space(sp: FiniteSpace) -> FiniteTop:
    pts = tuple(range(sp.m))
    opens = frozenset(
        frozenset(p for p in pts if u >> p & 1) for u in sp.opens
    )
    return FiniteTop(pts, opens)


def encode_fn(fn: tuple, sp_enc: FiniteTop, x: int) -> PiecewiseFn:
    """Singleton pieces for the finite entries, then a constant tail at
    the candidate limit: beyond n the model is already settled."""
    n = len(fn)
    pieces = [(T.finite_set(Universe.NAT, [k + 1]), Const(v)) for k, v in enumerate(fn)]
    pieces.append((T.tail(n + 1), Const(x)))
    return PiecewiseFn(Universe.NAT, sp_enc, tuple(pieces))


# --- structural fact suite ---


@dataclass(frozen=True)
class ClaimResult:
    name: str
    checked: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class SuiteReport:
    size: int
    claims: tuple

    @property
    def violations(self) -> int:
        return sum(len(c.violations) for c in self.claims)

    @property
    def ok(self) -> bool:
        return self.violations == 0


def _all_fns(n: int, m: int):
    out = [()]
    for _ in range(n):
        out = [f + (v,) for f in out for v in range(m)]
    return out


# The fact suite and the agreement sweep use every space of up to 3 points.
MAX_POINTS = 3


def _spaces_upto(pts: int):
    out = []
    for m in range(1, pts + 1):
        out.extend(enumerate_topologies(m))
    return out


def _fn_index(fn: tuple, m: int) -> int:
    """Position of fn in _all_fns(len(fn), m): its digits in base m."""
    idx = 0
    for v in fn:
        idx = idx * m + v
    return idx


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _bits(v: int):
    """The positions of the set bits of v, ascending."""
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


def _pack(verdicts) -> int:
    """The verdicts as one int: bit k is the k-th verdict."""
    return int(bytes(verdicts).translate(_DIGITS)[::-1], 2)


def lemma_suite(n: int) -> SuiteReport:
    """Exhaustively check the structural facts on universes of size n
    with codomain spaces of up to MAX_POINTS points."""
    if n > 4:
        raise SizeTooLarge("the fact suite is supported up to 4 points")
    ideals = enumerate_ideals(n)
    spaces = _spaces_upto(MAX_POINTS)
    fns_of = [_all_fns(n, sp.m) for sp in spaces]
    full = (1 << n) - 1
    ng = full + 1  # generators
    npairs = ng * ng

    # Tables filled by the literal loops (layout in the module docstring).
    lim_t = [
        [[_limit_row(fn, sp, x) for x in range(sp.m)] for fn in fns]
        for sp, fns in zip(spaces, fns_of)
    ]
    # Read as hex, a row's binary digits put bit g at bit 4g, so the rows of
    # (s, f) shifted by x < MAX_POINTS <= 4 give lim[s][f][g] at bits 4g..4g+3.
    nibbles = [[sum(int(f"{r:b}", 16) << x for x, r in enumerate(rows)) for rows in lim_s] for lim_s in lim_t]
    lim = [[[t >> (g << 2) & 15 for g in range(ng)] for t in lim_s] for lim_s in nibbles]
    star = [
        [[_star_row(fn, sp, x) for x in range(sp.m)] for fn in fns]
        for sp, fns in zip(spaces, fns_of)
    ]
    below = [(a, b) for a in range(ng) for b in range(ng) if a & ~b == 0]

    claims = []

    def claim(name):
        def deco(fnc):
            checked, bad = fnc()
            claims.append(ClaimResult(name, checked, tuple(bad)))
            return fnc

        return deco

    @claim("improper-ideal-absorbs-everything")
    def _c1():
        checked, bad = 0, []
        for sp, fns, lim_s in zip(spaces, fns_of, lim):
            for fn, row in zip(fns, lim_s):
                checked += 1
                if row[full] != (1 << sp.m) - 1:
                    bad.append(f"sp={sp.opens} fn={fn}")
        return checked, bad

    @claim("limits-grow-with-the-ideal")
    def _c2():
        checked, bad = 0, []
        for g1 in range(full + 1):
            for g2 in range(full + 1):
                if g1 & ~g2:
                    continue
                for sp, fns, lim_s in zip(spaces, fns_of, lim):
                    for fn, row in zip(fns, lim_s):
                        checked += 1
                        if row[g1] & ~row[g2]:
                            bad.append(f"gens={g1},{g2} sp={sp.opens} fn={fn}")
        return checked, bad

    @claim("hausdorff-limits-unique")
    def _c3():
        checked, bad = 0, []
        for sp, fns, lim_s in zip(spaces, fns_of, lim):
            if not sp.is_hausdorff():
                continue
            for i in ideals:
                if not i.is_proper():
                    continue
                for fn, row in zip(fns, lim_s):
                    checked += 1
                    if row[i.gen] & (row[i.gen] - 1):
                        bad.append(f"gen={i.gen} sp={sp.opens} fn={fn}")
        return checked, bad

    @claim("continuous-image-of-limits")
    def _c4():
        checked, bad = 0, []

        def pack(rows):  # 16 bits a row
            return int.from_bytes(struct.pack(f"<{len(rows)}H", *rows), "little")

        # flat[s]: per point y of space s, the limit rows at y of every
        # sequence; images[s2, m1][c]: per domain point x, the rows at tbl[x]
        # of the images under tbl (code c), read from flat[s2] at
        # gathers[m1, m2][c].  A map holds iff the domain's rows lie inside.
        flat = [[r for col in zip(*rows) for r in col] for rows in lim_t]
        gathers, images = {}, {}
        for sp1, fns1, lim1, own in zip(spaces, fns_of, lim, map(pack, flat)):
            for s2, (sp2, lim2) in enumerate(zip(spaces, lim)):
                tables = _value_tables(sp1.m, sp2.m)[0]
                if (sp1.m, sp2.m) not in gathers:
                    gathers[sp1.m, sp2.m] = at = []
                    for tbl in tables:
                        pos = [0]  # pos[f]: position of tbl . fns1[f] among the sequences of sp2
                        for _ in range(n):
                            pos = [f2 * sp2.m + y for f2 in pos for y in tbl]
                        at.append([y * sp2.m ** n + f2 for y in tbl for f2 in pos])
                if (s2, sp1.m) not in images:
                    images[s2, sp1.m] = [pack([flat[s2][k] for k in at]) for at in gathers[sp1.m, sp2.m]]
                image = images[s2, sp1.m]
                codes = _continuous_codes(sp1, sp2)
                checked += len(codes) * len(fns1) * ng
                for c in codes:
                    if not own & ~image[c]:
                        continue
                    tbl = tables[c]
                    img = [0]  # img[a]: the image of point mask a
                    for x in range(sp1.m):
                        img += [b | 1 << tbl[x] for b in img]
                    for fn, row1 in zip(fns1, lim1):
                        row2 = lim2[_fn_index([tbl[v] for v in fn], sp2.m)]
                        for g in range(full + 1):
                            if img[row1[g]] & ~row2[g]:
                                bad.append(
                                    f"map={tbl} gen={g} sp={sp1.opens}->{sp2.opens} fn={fn}"
                                )
        return checked, bad

    @claim("maximal-ideal-limits-exist")
    def _c5():
        checked, bad = 0, []
        for i in ideals:
            if not i.is_maximal():
                continue
            for sp, fns, lim_s in zip(spaces, fns_of, lim):
                for fn, row in zip(fns, lim_s):
                    checked += 1
                    if not row[i.gen]:
                        bad.append(f"gen={i.gen} sp={sp.opens} fn={fn}")
        return checked, bad

    @claim("aux-convergence-gives-star")
    def _c6():
        checked, bad = 0, []
        every_gi = ((1 << npairs) - 1) // ((1 << ng) - 1)  # bit gi * ng for each gi
        for sp, fns, lim_ts, star_s in zip(spaces, fns_of, lim_t, star):
            for fn, rows, star_f in zip(fns, lim_ts, star_s):
                found = []  # (gj, x, gi): the literal loops' order
                for x, (gjs, verdicts) in enumerate(zip(rows, star_f)):
                    checked += gjs.bit_count() * ng
                    found += ((p & full, x, p >> n) for p in _bits(gjs * every_gi & ~verdicts))
                bad += (f"gens={gi},{gj} sp={sp.opens} fn={fn} x={x}" for gj, x, gi in sorted(found))
        return checked, bad

    @claim("star-monotone-in-both-ideals")
    def _c7():
        checked, bad = 0, []
        # clear[b]: the positions whose bit b is 0; a row is monotone iff
        # setting any one bit of a true position keeps it true
        clear = [sum(1 << p for p in range(npairs) if not p >> b & 1) for b in range(2 * n)]
        for sp, fns, star_s in zip(spaces, fns_of, star):
            for fn, star_f in zip(fns, star_s):
                for x, verdicts in enumerate(star_f):
                    checked += len(below) ** 2
                    if not any((verdicts & c) << (1 << b) & ~verdicts for b, c in enumerate(clear)):
                        continue
                    for gi1, gi2 in below:
                        r1, r2 = gi1 << n, gi2 << n
                        for gj1, gj2 in below:
                            if verdicts >> (r1 | gj1) & 1 and not verdicts >> (r2 | gj2) & 1:
                                bad.append(
                                    f"gens={gi1}<{gi2},{gj1}<{gj2} sp={sp.opens} fn={fn} x={x}"
                                )
        return checked, bad

    @claim("star-forces-base-when-aux-refines")
    def _c8():
        checked, bad = 0, []
        nested = sum(1 << (gi << n | gj) for gj, gi in below)

        @lru_cache(maxsize=None)
        def outside(gis):  # the nested positions whose gi is not in gis
            return nested & ~sum(((1 << ng) - 1) << gi * ng for gi in range(ng) if gis >> gi & 1)

        for sp, fns, lim_ts, star_s in zip(spaces, fns_of, lim_t, star):
            for fn, rows, star_f in zip(fns, lim_ts, star_s):
                checked += len(below) * sp.m
                found = sorted(
                    (p, x) for x, (gis, v) in enumerate(zip(rows, star_f)) for p in _bits(v & outside(gis))
                )
                bad += (f"gens={p >> n},{p & full} sp={sp.opens} fn={fn} x={x}" for p, x in found)
        return checked, bad

    @claim("gap-function-when-aux-escapes-base")
    def _c9():
        checked, bad = 0, []
        # outside[s][x]: the points outside the smallest open around x
        outside = [[[y for y in range(sp.m) if not mn >> y & 1] for mn in map(sp.min_nbhd, range(sp.m))] for sp in spaces]
        for gi in range(full + 1):
            for gj in range(full + 1):
                extra = gj & ~gi
                if not extra:
                    continue
                a = extra & -extra
                for s, sp in enumerate(spaces):
                    for x, ys in enumerate(outside[s]):
                        if not ys:
                            continue
                        y = ys[0]
                        f = _fn_index([y if a >> k & 1 else x for k in range(n)], sp.m)
                        checked += 1
                        if not star[s][f][x] >> (gi << n | gj) & 1:
                            bad.append(f"gens={gi},{gj} sp={sp.opens} x={x}")
                        elif lim[s][f][gi] >> x & 1:
                            bad.append(f"base-converges gens={gi},{gj} sp={sp.opens} x={x}")
        return checked, bad

    @claim("star-matches-trace-restriction")
    def _c10():
        checked, bad = 0, []
        # The trace condition reads the escapes of the opens around x only
        # through their union e, so via[e] holds its verdicts for every
        # (gi, gj) pair, each from the literal quantifier over m.
        via = [
            _pack(
                any(not (~m & full) & ~gi and not (m & e) & ~gj for m in range(full + 1))
                for gi in range(full + 1)
                for gj in range(full + 1)
            )
            for e in range(full + 1)
        ]
        for sp, fns, star_s in zip(spaces, fns_of, star):
            # an index escapes some open around x iff its value leaves
            # the smallest one
            nbhds = [sp.min_nbhd(x) for x in range(sp.m)]
            for fn, star_f in zip(fns, star_s):
                checked += npairs * sp.m
                found = sorted(
                    (p, x)
                    for x, (nb, v) in enumerate(zip(nbhds, star_f))
                    for p in _bits(v ^ via[sum(1 << k for k, y in enumerate(fn) if not nb >> y & 1)])
                )
                bad += (f"gens={p >> n},{p & full} sp={sp.opens} fn={fn} x={x}" for p, x in found)
        return checked, bad

    @claim("decomposition-recombines")
    def _c11():
        checked, bad = 0, []
        palette = (Fraction(0), Fraction(1), Fraction(1, 2))
        sup, kinds, entries = _supersets(n), ("recombine", "support", "g-convergence"), {}
        # An index's arithmetic depends only on its value, x and whether m
        # keeps it (g keeps the value or takes x, h = value - g): done once.
        for v, xi, kept in product(range(3), range(3), (0, 1)):
            g = palette[v] if kept else palette[xi]
            h = palette[v] - g
            entries[v, xi, kept] = (palette[v] == g + h, h != 0, g != palette[xi])
        for fn in _all_fns(n, len(palette)):
            values = tuple(palette[v] for v in fn)
            found = []  # (gi, gj, x's position, kind, m): the literal loops' order
            for xi, x in enumerate(palette):
                # brute_metric_ihj for every pair in one ascending pass over
                # the regions: each gi keeps a word of the gj not yet met,
                # and the gj newly in m's word have m as their first region
                words = _escape_words(_metric_escape(values, x), n)
                open_gj = [(1 << ng) - 1] * ng
                for m in range(ng):
                    word = words >> (m << n)
                    es = [entries[v, xi, m >> k & 1] for k, v in enumerate(fn)]
                    recombined, supp, esc_g = (sum(e[t] << k for k, e in enumerate(es)) for t in range(3))
                    for s in _submasks(m):  # the gi whose complement m covers
                        gi = full & ~m | s
                        new = word & open_gj[gi]
                        open_gj[gi] ^= new
                        checked += new.bit_count()
                        if recombined != full:
                            found += ((gi, gj, xi, 0, m) for gj in _bits(new))
                            continue
                        if supp & ~gi:
                            found += ((gi, gj, xi, 1, m) for gj in _bits(new))
                        found += ((gi, gj, xi, 2, m) for gj in _bits(new & ~sup[esc_g]))
            bad += (f"{kinds[k]} values={values} m={m}" for _, _, _, k, m in sorted(found))
        return checked, bad

    @claim("maximal-means-one-point-missing")
    def _c12():
        checked, bad = 0, []
        for i in ideals:
            checked += 1
            expect = i.is_proper() and bin(full & ~i.gen).count("1") == 1
            if i.is_maximal() != expect:
                bad.append(f"gen={i.gen}")
        return checked, bad

    return SuiteReport(n, tuple(claims))


# --- brute vs symbolic agreement ---


@dataclass(frozen=True)
class AgreementReport:
    size: int
    conv_checked: int
    star_checked: int
    disagreements: tuple

    @property
    def ok(self) -> bool:
        return not self.disagreements


def agreement_sweep(n: int) -> AgreementReport:
    """Every finite model up to the given sizes, decided twice: by the
    literal loops here and by the symbolic engine on the encoded model.
    Any mismatch, and any symbolic UNKNOWN, is a disagreement."""
    from .convergence import Verdict, converges, star_converges

    if n > 4:
        raise SizeTooLarge("the agreement sweep is supported up to size 4")
    if n < 1:
        raise SizeTooLarge("need at least one point")
    disagreements = []
    conv_checked = star_checked = 0
    for s in range(1, n + 1):
        ideals = enumerate_ideals(s)
        enc = {i.gen: encode_ideal(i) for i in ideals}
        for sp in _spaces_upto(MAX_POINTS):
            spe = encode_space(sp)
            for fn in _all_fns(s, sp.m):
                blim = {i.gen: brute_i_limits(fn, i, sp) for i in ideals}
                for x in range(sp.m):
                    fenc = encode_fn(fn, spe, x)
                    for i in ideals:
                        conv_checked += 1
                        want = x in blim[i.gen]
                        got = converges(fenc, enc[i.gen], x)
                        if got is not (Verdict.YES if want else Verdict.NO):
                            disagreements.append(
                                f"conv s={s} sp={sp.opens} fn={fn} x={x} "
                                f"gen={i.gen}: brute={want} symbolic={got.value}"
                            )
                        for j in ideals:
                            star_checked += 1
                            bres = brute_ihj(fn, i, j, sp, x)[0]
                            sres = star_converges(fenc, enc[i.gen], enc[j.gen], x)
                            if sres.verdict is not (
                                Verdict.YES if bres else Verdict.NO
                            ):
                                disagreements.append(
                                    f"star s={s} sp={sp.opens} fn={fn} x={x} "
                                    f"gens={i.gen},{j.gen}: brute={bres} "
                                    f"symbolic={sres.verdict.value}"
                                )
    return AgreementReport(n, conv_checked, star_checked, tuple(disagreements))


# --- symbolic claims vs truncation evidence ---


@dataclass(frozen=True)
class CrosscheckReport:
    bound: int
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def crosscheck(t, bound: int) -> CrosscheckReport:
    """Confront a term's symbolic classification and memberships with
    brute truncation evidence at the given bound and at five times it."""
    from .ideals import in_ideal, partition_incidence, partition_ideal, quadrant_avoidance
    from .partitions import CORNER, block_of
    from .universe import elements_upto

    checks = []
    cls = T.classify(t)
    small = T.truncate(t, bound)
    big = T.truncate(t, 5 * bound)
    ok = set(small) <= set(big)
    checks.append(("truncation-monotone", ok, f"{len(small)} then {len(big)} members"))
    if cls.is_empty():
        checks.append(("empty-has-no-members", not big, f"{len(big)} members"))
    elif cls.is_finite():
        ok = len(big) <= cls.cardinality and len(small) <= cls.cardinality
        checks.append(
            ("finite-within-cardinality", ok, f"card {cls.cardinality}, saw {len(big)}")
        )
    else:
        checks.append(
            ("infinite-keeps-appearing", len(big) >= len(small), f"{len(small)}->{len(big)}")
        )
    if t.universe is Universe.NATPAIR:
        g = T.pair_grid(t)
        ref = [e for e in elements_upto(Universe.NATPAIR, bound) if g.contains(e)]
        checks.append(
            ("normal-form-matches-member-loop", list(small) == ref, f"{len(ref)} members")
        )
        a = quadrant_avoidance(t)
        b = in_ideal(partition_ideal(CORNER), t)
        checks.append(
            ("quadrant-vs-partition-membership", a == b, f"{a} vs {b}")
        )
        fin_inc, idx = partition_incidence(CORNER, t)
        seen_small = {block_of(CORNER, e) for e in small}
        seen_big = {block_of(CORNER, e) for e in big}
        ok = seen_small <= seen_big
        if fin_inc:
            ok = ok and seen_big <= set(idx)
        checks.append(
            (
                "block-incidence-consistent",
                ok,
                f"blocks {sorted(seen_small)} then {sorted(seen_big)}",
            )
        )
    else:
        v = T.nat_value(t)
        ref = [e for e in elements_upto(Universe.NAT, bound) if v.contains(e)]
        checks.append(
            ("normal-form-matches-member-loop", list(small) == ref, f"{len(ref)} members")
        )
    return CrosscheckReport(bound, tuple(checks))
