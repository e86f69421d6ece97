"""Finite-universe oracles: enumerations, brute decisions, fact suite."""

import gc
import hashlib
import weakref
from collections import Counter
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

import idealconv as ic
from idealconv import FiniteIdeal, FiniteSpace, Universe, finite
from idealconv.errors import SizeTooLarge


# Independent enumeration: filter every family of subsets by the ideal
# axioms (contains empty, downward closed, closed under union).
def brute_ideal_families(n):
    full = 1 << n
    fams = set()
    for mask in range(1 << full):
        if not mask & 1:  # empty set is subset 0
            continue
        fam = [s for s in range(full) if mask >> s & 1]
        ok = True
        for a in fam:
            s = a
            while ok:  # all submasks present
                if not (mask >> s & 1):
                    ok = False
                if s == 0:
                    break
                s = (s - 1) & a
            for b in fam:
                if not (mask >> (a | b) & 1):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            fams.add(frozenset(fam))
    return fams


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumerate_ideals_matches_brute_closure(n):
    got = {frozenset(i.family()) for i in ic.enumerate_ideals(n)}
    assert got == brute_ideal_families(n)
    assert len(got) == 1 << n


def test_enumerate_ideals_bounds():
    assert len(ic.enumerate_ideals(4)) == 16
    with pytest.raises(SizeTooLarge):
        ic.enumerate_ideals(6)
    with pytest.raises(SizeTooLarge):
        ic.enumerate_ideals(0)


def test_ideal_flags():
    i = FiniteIdeal(3, 0b011)
    assert i.contains(0b010) and not i.contains(0b100)
    assert i.is_proper() and not i.is_admissible()
    imp = FiniteIdeal(3, 0b111)
    assert imp.is_admissible() and not imp.is_proper()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_maximal_iff_no_proper_extension(n):
    # oracle: maximal means proper, and adding any outside set and
    # closing under union/subsets yields the improper ideal
    full = (1 << n) - 1
    for i in ic.enumerate_ideals(n):
        fam = set(i.family())
        extendable = False
        if i.is_proper():
            for extra in range(full + 1):
                if extra in fam:
                    continue
                closure_gen = i.gen | extra
                if closure_gen != full:
                    extendable = True
                    break
        assert i.is_maximal() == (i.is_proper() and not extendable), i.gen


def test_topology_counts():
    assert len(ic.enumerate_topologies(1)) == 1
    assert len(ic.enumerate_topologies(2)) == 4
    assert len(ic.enumerate_topologies(3)) == 29  # labeled topologies on 3 points
    with pytest.raises(SizeTooLarge):
        ic.enumerate_topologies(5)


def test_topologies_satisfy_axioms():
    for sp in ic.enumerate_topologies(3):
        full = (1 << sp.m) - 1
        assert 0 in sp.opens and full in sp.opens
        for a in sp.opens:
            for b in sp.opens:
                assert (a | b) in sp.opens and (a & b) in sp.opens


def test_min_nbhd_and_hausdorff():
    sierp = FiniteSpace(2, (0, 0b01, 0b11))
    assert sierp.min_nbhd(0) == 0b01
    assert sierp.min_nbhd(1) == 0b11
    assert not sierp.is_hausdorff()
    disc = FiniteSpace(2, (0, 0b01, 0b10, 0b11))
    assert disc.is_hausdorff()


def test_continuous_tables_sierpinski():
    sierp = FiniteSpace(2, (0, 0b01, 0b11))
    tables = ic.continuous_tables(sierp, sierp)
    # swapping the open and dense points is the only discontinuous table
    assert set(tables) == {(0, 0), (0, 1), (1, 1)}


def _ref_continuous_tables(sp1, sp2):
    # the literal loop: every value table by code, every open's preimage
    out = []
    for code in range(sp2.m ** sp1.m):
        tbl, c = [], code
        for _ in range(sp1.m):
            tbl.append(c % sp2.m)
            c //= sp2.m
        ok = True
        for u in sp2.opens:
            pre = 0
            for p in range(sp1.m):
                if u >> tbl[p] & 1:
                    pre |= 1 << p
            if pre not in sp1.opens:
                ok = False
                break
        if ok:
            out.append(tuple(tbl))
    return tuple(out)


def test_continuous_tables_match_reference_loop():
    spaces = finite._spaces_upto(3)
    assert len(spaces) == 34
    for sp1 in spaces:
        for sp2 in spaces:
            assert ic.continuous_tables(sp1, sp2) == _ref_continuous_tables(sp1, sp2), (
                sp1.opens,
                sp2.opens,
            )


def test_brute_i_limits_frozen():
    sierp = FiniteSpace(2, (0, 0b01, 0b11))
    fn = (0, 1, 0)  # values at indices 0, 1, 2
    fin_like = FiniteIdeal(3, 0)  # only the empty escape allowed
    assert ic.brute_i_limits(fn, fin_like, sierp) == [1]
    absorbing = FiniteIdeal(3, 0b010)  # may discard index 1
    assert ic.brute_i_limits(fn, absorbing, sierp) == [0, 1]
    imp = FiniteIdeal(3, 0b111)
    assert ic.brute_i_limits(fn, imp, sierp) == [0, 1]


def test_brute_ihj_frozen():
    sierp = FiniteSpace(2, (0, 0b01, 0b11))
    fn = (0, 1, 0)
    i = FiniteIdeal(3, 0b010)
    j = FiniteIdeal(3, 0)
    found, m = ic.brute_ihj(fn, i, j, sierp, 0)
    assert found
    # the modification region must drop index 1, smallest such mask first
    assert m == 0b101
    found2, _ = ic.brute_ihj(fn, FiniteIdeal(3, 0), j, sierp, 0)
    assert not found2


def test_brute_metric_routes_agree():
    values = (Fr(0), Fr(1), Fr(0), Fr(1, 2))
    for i in ic.enumerate_ideals(4):
        lims = ic.brute_metric_limits(values, i)
        for x in (Fr(0), Fr(1), Fr(1, 2)):
            found, m = ic.brute_metric_ihj(values, i, i, x)
            # with j = i star and plain convergence coincide
            assert found == (x in lims)


def test_brute_ap_maximum_rule():
    # finite ideals always have a largest member, so the property holds
    for i in ic.enumerate_ideals(3):
        for j in ic.enumerate_ideals(3):
            assert ic.brute_ap(i, j) is True
            vals = ic.brute_pi_conditions(i, j)
            assert set(vals.values()) == {True}


def test_pi_crosscheck_sizes():
    assert ic.pi_condition_crosscheck(3).ok
    assert ic.pi_condition_crosscheck(3).pairs == 64


# Reference copies of the selection DP and the family enumerations as
# they were before the DP was shared along each base ideal's families:
# every family is evaluated from scratch, and the enumerations are redone
# per ideal pair.
def _ref_selection_exists(i, j, family) -> bool:
    fam_i = i.family()
    reach = {0}
    for a in family:
        cands = [b for b in fam_i if (b ^ a) & ~j.gen == 0]
        if not cands:
            return False
        reach = {u | b for u in reach for b in cands}
    return any(u & ~i.gen == 0 for u in reach)


def _ref_disjoint_families(masks):
    out = [()]
    masks = [m for m in masks if m]

    def rec(start, used, acc):
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


def _ref_chains(masks):
    out = []
    masks = sorted(m for m in masks if m)

    def rec(last, acc):
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


def _ref_brute_pi_conditions(i, j) -> dict:
    fam = i.family()
    return {
        "p1": ic.brute_ap(i, j),
        "p3": _ref_selection_exists(i, j, fam),
        "p4": all(_ref_selection_exists(i, j, d) for d in _ref_disjoint_families(fam)),
        "p6": all(_ref_selection_exists(i, j, c) for c in _ref_chains(fam)),
    }


def _dp_selection(i, j, family) -> bool:
    family = tuple(family)
    return finite._selections(i, j, [family[:k] for k in range(1, len(family) + 1)])[family]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pi_conditions_match_reference_on_every_pair(n):
    ideals = ic.enumerate_ideals(n)
    for i in ideals:
        fam = i.family()
        prefixes, disjoint, chains = finite._pi_families(i)
        assert finite._disjoint_families(fam) == disjoint == _ref_disjoint_families(fam)
        assert finite._chains(fam) == chains == _ref_chains(fam)
        assert prefixes[-1] == tuple(fam)
        for j in ideals:
            assert ic.brute_pi_conditions(i, j) == _ref_brute_pi_conditions(i, j), (i.gen, j.gen)
            ok = finite._selections(i, j, prefixes + disjoint + chains)
            assert all(ok[f] == _ref_selection_exists(i, j, f) for f in disjoint + chains)


def test_pi_families_are_enumerated_once_per_base_ideal(monkeypatch):
    calls = Counter()

    def counted(name):
        f = getattr(finite, name)
        return lambda masks: calls.update([name]) or f(masks)

    for name in ("_disjoint_families", "_chains"):
        monkeypatch.setattr(finite, name, counted(name))
    assert ic.pi_condition_crosscheck(3).ok
    assert calls == {"_disjoint_families": 8, "_chains": 8}


@st.composite
def _selection_triples(draw):
    # members drawn from all masks, so some lie outside gi | gj and the
    # answer is False: every pair of real families answers True
    n = draw(st.integers(1, 4))
    i, j = (FiniteIdeal(n, draw(st.integers(0, (1 << n) - 1))) for _ in "ij")
    family = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    return i, j, family


@settings(max_examples=400)
@given(_selection_triples())
def test_selection_dp_matches_reference_on_drawn_families(triple):
    i, j, family = triple
    assert _dp_selection(i, j, family) == _ref_selection_exists(i, j, family)


def test_selection_dp_answers_false():
    i, j = FiniteIdeal(3, 0b001), FiniteIdeal(3, 0b010)
    assert _dp_selection(i, j, (0b011, 0b001)) is _ref_selection_exists(i, j, (0b011, 0b001)) is True
    assert _dp_selection(i, j, (0b001, 0b100)) is _ref_selection_exists(i, j, (0b001, 0b100)) is False
    assert _dp_selection(i, j, ()) is True


def test_lemma_suite_small():
    rep = ic.lemma_suite(2)
    assert rep.ok and rep.violations == 0
    assert len(rep.claims) == 12
    names = {c.name for c in rep.claims}
    assert "decomposition-recombines" in names
    assert all(c.checked > 0 for c in rep.claims)
    with pytest.raises(SizeTooLarge):
        ic.lemma_suite(9)


def test_lemma_suite_checked_counts():
    rep = ic.lemma_suite(2)
    assert [c.checked for c in rep.claims] == [
        278, 2502, 42, 389208, 556, 8744, 66096, 7344, 490, 13056, 300, 4
    ]


def test_lemma_suite_checked_counts_size_three():
    rep = ic.lemma_suite(3)
    assert rep.ok
    assert [c.checked for c in rep.claims] == [
        816, 22032, 252, 2309904, 2448, 87696, 1759806, 65178, 2590, 154496, 3000, 8
    ]


def test_lemma_suite_oracle_call_counts(monkeypatch):
    # every limit row and every star row, all generators or ideal pairs of
    # one (space, sequence, point), comes from one read of the region words
    calls = {"row": 0, "limits": 0}

    def counted(name, fnc):
        def wrapper(*args):
            calls[name] += 1
            return fnc(*args)

        return wrapper

    monkeypatch.setattr(finite, "_star_row", counted("row", finite._star_row))
    monkeypatch.setattr(finite, "_limit_row", counted("limits", finite._limit_row))
    assert ic.lemma_suite(2).ok
    # 816 rows: one per (space, sequence, point), 13,056 verdicts / 16 pairs
    assert calls == {"row": 816, "limits": 816}


SIERPINSKI = (0, 0b01, 0b11)


def _violations(rep):
    return {c.name: c.violations for c in rep.claims if c.violations}


def test_lemma_suite_single_star_flip(monkeypatch):
    # one true star verdict reported false: each claim reading it names
    # exactly that instance
    orig = finite._star_row

    def flipped(fn, sp, x):
        row = orig(fn, sp, x)
        if sp.opens == SIERPINSKI and fn == (1, 0) and x == 0:
            return row ^ 1 << (0 << 2 | 3)  # (gi, gj) = (0, 3)
        return row

    monkeypatch.setattr(finite, "_star_row", flipped)
    assert _violations(ic.lemma_suite(2)) == {
        "aux-convergence-gives-star": ("gens=0,3 sp=(0, 1, 3) fn=(1, 0) x=0",),
        "star-monotone-in-both-ideals": ("gens=0<0,1<3 sp=(0, 1, 3) fn=(1, 0) x=0",),
        "gap-function-when-aux-escapes-base": ("gens=0,3 sp=(0, 1, 3) x=0",),
        "star-matches-trace-restriction": ("gens=0,3 sp=(0, 1, 3) fn=(1, 0) x=0",),
    }


def test_lemma_suite_dropped_limit(monkeypatch):
    # point 1 dropped from one limit set: the continuous images of every
    # sequence mapped onto (1, 1) now escape it
    orig = finite._limit_row

    def dropped(fn, sp, x):
        row = orig(fn, sp, x)
        if sp.opens == SIERPINSKI and fn == (1, 1) and x == 1:
            return row & ~(1 << 1)  # generator 1
        return row

    monkeypatch.setattr(finite, "_limit_row", dropped)
    got = _violations(ic.lemma_suite(2))
    image = got.pop("continuous-image-of-limits")
    assert len(image) == 460
    assert image[:3] == (
        "map=(1,) gen=1 sp=(0, 1)->(0, 1, 3) fn=(0, 0)",
        "map=(1, 1) gen=1 sp=(0, 3)->(0, 1, 3) fn=(0, 0)",
        "map=(1, 1) gen=1 sp=(0, 3)->(0, 1, 3) fn=(0, 1)",
    )
    assert hashlib.sha256("\n".join(image).encode()).hexdigest() == (
        "28eb807bc3ebba68bafee909a4c0c3fcb8de03b3fcbc85942fd06888d3b5df27"
    )
    assert got == {
        "limits-grow-with-the-ideal": ("gens=0,1 sp=(0, 1, 3) fn=(1, 1)",),
        "maximal-ideal-limits-exist": ("gen=1 sp=(0, 1, 3) fn=(1, 1)",),
        "star-forces-base-when-aux-refines": (
            "gens=1,0 sp=(0, 1, 3) fn=(1, 1) x=1",
            "gens=1,1 sp=(0, 1, 3) fn=(1, 1) x=1",
        ),
    }


def _ref_decomposition(n):
    """decomposition-recombines as one literal loop over (values, i, j, x),
    each first region found by brute_metric_ihj's walk, with the module's
    own Fraction, escapes and region words, so that a patch reaches both."""
    checked, bad = 0, []
    palette = (finite.Fraction(0), finite.Fraction(1), finite.Fraction(1, 2))
    ideals = ic.enumerate_ideals(n)
    for fn in finite._all_fns(n, 3):
        values = tuple(palette[v] for v in fn)
        for i in ideals:
            for j in ideals:
                for x in palette:
                    words = finite._escape_words(finite._metric_escape(values, x), n)
                    found, m = finite._first_region(words, i, j)
                    if not found:
                        continue
                    checked += 1
                    g = tuple(values[k] if m >> k & 1 else x for k in range(n))
                    h = tuple(values[k] - g[k] for k in range(n))
                    if not all(values[k] == g[k] + h[k] for k in range(n)):
                        bad.append(f"recombine values={values} m={m}")
                        continue
                    if not i.contains(sum(1 << k for k in range(n) if h[k] != 0)):
                        bad.append(f"support values={values} m={m}")
                    if not j.contains(sum(1 << k for k in range(n) if g[k] != x)):
                        bad.append(f"g-convergence values={values} m={m}")
    return checked, tuple(bad)


class _Ghost(Fr):
    """A zero that says it is not zero."""

    def __ne__(self, other):
        return True


class _GhostSub(Fr):
    """A value whose exact differences of zero come back as ghosts."""

    def __sub__(self, other):
        d = Fr.__sub__(self, other)
        return _Ghost(d) if d == 0 else d


class _OffSub(Fr):
    """A value whose differences from a distinct value are off by 1/7."""

    def __sub__(self, other):
        d = Fr.__sub__(self, other)
        return d + Fr(1, 7) if d else d


def _drop_low_bit(escape):
    return lambda values, x: (e := escape(values, x)) & (e - 1)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("patch", ["none", "escape", "ghost", "off"])
def test_decomposition_claim_matches_literal_loop(monkeypatch, n, patch):
    # a broken escape gives g-convergence violations, ghost zeros support
    # violations and skewed differences recombine violations: each in the
    # literal loop's order and with its count of checked instances
    if patch == "escape":
        monkeypatch.setattr(finite, "_metric_escape", _drop_low_bit(finite._metric_escape))
    elif patch != "none":
        monkeypatch.setattr(finite, "Fraction", _GhostSub if patch == "ghost" else _OffSub)
    claim = {c.name: c for c in ic.lemma_suite(n).claims}["decomposition-recombines"]
    want = _ref_decomposition(n)
    assert (claim.checked, claim.violations) == want
    kind = {"none": None, "escape": "g-convergence", "ghost": "support", "off": "recombine"}[patch]
    assert {v.split()[0] for v in want[1]} == ({kind} if kind else set())


def _violated_claims(rep):
    return {c.name for c in rep.claims if c.violations}


def test_lemma_suite_consumes_brute_ihj(monkeypatch):
    # star rows that always answer no: exactly the claims that need some
    # star verdict to be yes report it
    monkeypatch.setattr("idealconv.finite._star_row", lambda fn, sp, x: 0)
    assert _violated_claims(ic.lemma_suite(2)) == {
        "aux-convergence-gives-star",
        "gap-function-when-aux-escapes-base",
        "star-matches-trace-restriction",
    }


def test_lemma_suite_consumes_brute_i_limits(monkeypatch):
    monkeypatch.setattr("idealconv.finite._limit_row", lambda fn, sp, x: 0)
    assert _violated_claims(ic.lemma_suite(2)) == {
        "improper-ideal-absorbs-everything",
        "maximal-ideal-limits-exist",
        "star-forces-base-when-aux-refines",
    }


# --- encoding bridge ---


def test_encode_ideal_membership():
    i = FiniteIdeal(3, 0b101)  # members drawn from {index 0, index 2}
    enc = ic.encode_ideal(i)
    assert ic.in_ideal(enc, ic.finite_set(Universe.NAT, [1, 3]))
    assert ic.in_ideal(enc, ic.tail(4))  # the tail beyond n is absorbed
    assert not ic.in_ideal(enc, ic.finite_set(Universe.NAT, [2]))


def test_encode_fn_values():
    sp = FiniteSpace(2, (0, 0b01, 0b11))
    spe = ic.encode_space(sp)
    f = ic.encode_fn((0, 1, 0), spe, 1)
    assert [ic.evaluate(f, e) for e in (1, 2, 3)] == [0, 1, 0]
    assert ic.evaluate(f, 9) == 1  # beyond the model, parked at x


def test_encode_space_structure():
    sp = FiniteSpace(2, (0, 0b01, 0b11))
    spe = ic.encode_space(sp)
    assert spe.min_nbhd(0) == frozenset({0})
    assert spe.min_nbhd(1) == frozenset({0, 1})


@settings(max_examples=40)
@given(st.integers(0, 7), st.integers(0, 2), st.data())
def test_agreement_on_sampled_models(gen, x, data):
    # one random finite model, decided by loop and by symbolic engine
    from idealconv import Verdict, converges

    sp = data.draw(st.sampled_from(ic.enumerate_topologies(3)))
    fn = tuple(data.draw(st.integers(0, sp.m - 1)) for _ in range(3))
    if x >= sp.m:
        x = sp.m - 1
    i = FiniteIdeal(3, gen)
    want = x in ic.brute_i_limits(fn, i, sp)
    got = converges(ic.encode_fn(fn, ic.encode_space(sp), x), ic.encode_ideal(i), x)
    assert got is (Verdict.YES if want else Verdict.NO)


def test_agreement_sweep_size_two():
    rep = ic.agreement_sweep(2)
    assert rep.ok
    assert rep.conv_checked > 0 and rep.star_checked > 0


def test_agreement_sweep_bounds():
    with pytest.raises(SizeTooLarge):
        ic.agreement_sweep(0)
    with pytest.raises(SizeTooLarge):
        ic.agreement_sweep(5)


def test_crosscheck_reports():
    t = ic.inter(ic.upper_quad(2), ic.compl(ic.col(3)))
    rep = ic.crosscheck(t, 12)
    assert rep.ok, rep.checks
    t2 = ic.diff(ic.tail(3), ic.block(ic.RULER, 2))
    assert ic.crosscheck(t2, 20).ok


def test_crosscheck_catches_a_wrong_quadrant_answer(monkeypatch):
    # the quadrant route must be independent of partition membership, so a
    # wrong grid answer shows as a failed check
    from idealconv.pairset import PairGrid

    t = ic.inter(ic.upper_quad(2), ic.compl(ic.col(3)))
    assert ic.crosscheck(t, 12).ok
    right = PairGrid.avoids_some_quadrant
    monkeypatch.setattr(PairGrid, "avoids_some_quadrant", lambda g: not right(g))
    rep = ic.crosscheck(t, 12)
    assert not rep.ok
    assert [c[0] for c in rep.checks if not c[1]] == ["quadrant-vs-partition-membership"]


# --- brute oracles against the literal reference loops ---
#
# The reference loops read the definitions with no shortcut: every escape
# is recomputed per call and every region m from 0 to full is tried.


def _ref_i_limits(fn, i, sp):
    out = []
    for x in range(sp.m):
        good = True
        for u in sp.opens:
            if not (u >> x & 1):
                continue
            esc = 0
            for k, v in enumerate(fn):
                if not (u >> v & 1):
                    esc |= 1 << k
            if not i.contains(esc):
                good = False
                break
        if good:
            out.append(x)
    return out


def _ref_ihj(fn, i, j, sp, x):
    full = (1 << i.n) - 1
    escs = []
    for u in sp.opens:
        if not (u >> x & 1):
            continue
        e = 0
        for k, v in enumerate(fn):
            if not (u >> v & 1):
                e |= 1 << k
        escs.append(e)
    for m in range(full + 1):
        if (~m & full) & ~i.gen:
            continue
        if all(not (e & m) & ~j.gen for e in escs):
            return True, m
    return False, None


def _ref_metric_ihj(values, i, j, x):
    full = (1 << i.n) - 1
    esc = 0
    for k, v in enumerate(values):
        if v != x:
            esc |= 1 << k
    for m in range(full + 1):
        if (~m & full) & ~i.gen:
            continue
        if (esc & m) & ~j.gen == 0:
            return True, m
    return False, None


PALETTE = (Fr(0), Fr(1), Fr(1, 2))


def _oracle_mismatches(sp, fn, ideals):
    """Every (i, j, x) on which an oracle, or a bit of the star row
    lemma_suite reads, differs from its reference."""
    bad = [("limits", i.gen) for i in ideals if ic.brute_i_limits(fn, i, sp) != _ref_i_limits(fn, i, sp)]
    for x in range(sp.m):
        row = finite._star_row(fn, sp, x)
        for i in ideals:
            for j in ideals:
                ref = _ref_ihj(fn, i, j, sp, x)
                if ic.brute_ihj(fn, i, j, sp, x) != ref:
                    bad.append(("star", i.gen, j.gen, x))
                if row >> (i.gen << len(fn) | j.gen) & 1 != ref[0]:
                    bad.append(("row", i.gen, j.gen, x))
    return bad


def _metric_mismatches(values, ideals):
    return [
        (i.gen, j.gen, x)
        for i in ideals
        for j in ideals
        for x in PALETTE
        if ic.brute_metric_ihj(values, i, j, x) != _ref_metric_ihj(values, i, j, x)
    ]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_brute_oracles_match_reference_loops(n):
    # every model with n indices and up to three points, every ideal pair:
    # the same verdicts, witness regions and limit lists
    ideals = ic.enumerate_ideals(n)
    for sp in finite._spaces_upto(3):
        for fn in finite._all_fns(n, sp.m):
            assert _oracle_mismatches(sp, fn, ideals) == [], (sp.opens, fn)
    for values in finite._all_fns(n, 3):
        values = tuple(PALETTE[v] for v in values)
        assert _metric_mismatches(values, ideals) == [], values


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_brute_oracles_match_reference_loops_size_four(data):
    # all 256 ideal pairs of each drawn model
    sp = data.draw(st.sampled_from(finite._spaces_upto(3)))
    fn = tuple(data.draw(st.integers(0, sp.m - 1)) for _ in range(4))
    ideals = ic.enumerate_ideals(4)
    assert _oracle_mismatches(sp, fn, ideals) == []
    values = tuple(data.draw(st.sampled_from(PALETTE)) for _ in range(4))
    assert _metric_mismatches(values, ideals) == []


def test_escape_memo_holds_one_entry_per_model():
    sp = FiniteSpace(2, SIERPINSKI)  # hand-built: its own, empty memo
    for n in (1, 2, 3):
        ideals = ic.enumerate_ideals(n)
        for fn in finite._all_fns(n, sp.m):
            for i in ideals:
                ic.brute_i_limits(fn, i, sp)
                for j in ideals:
                    for x in range(sp.m):
                        ic.brute_ihj(fn, i, j, sp, x)
    memo = sp.__dict__["_words_at"]
    assert all(
        isinstance(fn, tuple) and isinstance(x, int) and 0 <= x < sp.m for fn, x in memo
    )
    sizes = Counter(len(fn) for fn, _ in memo)
    assert sizes == {n: sp.m ** n * sp.m for n in (1, 2, 3)}


def test_escape_memo_dies_with_its_space():
    sp = FiniteSpace(2, SIERPINSKI)
    assert ic.brute_ihj((0, 1, 0), FiniteIdeal(3, 0b010), FiniteIdeal(3, 0), sp, 0) == (True, 0b101)
    assert sp.__dict__["_words_at"]
    ref = weakref.ref(sp)
    del sp
    gc.collect()
    assert ref() is None


# SHA-256 of repr(lemma_suite(n)): the whole report, names, counts and
# (empty) violation tuples, as the literal loops produced it.
GOLDEN_REPORTS = {
    1: "9c551642c5482472f5ba5979e2dd2c6b3f39d0f419d0183e69a4291d648639e5",
    2: "34b6db0d778d0dcf13470700831299cc90cfb033e91c7f5b21b4b137bee23350",
    3: "219fbba739f204945b2f76671479c413ffae4ecc48f66a7382abb29e0f73b832",
    4: "f7289737f5118a6a4ab63dc09bf028e3563fb7847c9a54c673729781d18d884b",
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lemma_suite_golden_report(n):
    digest = hashlib.sha256(repr(ic.lemma_suite(n)).encode()).hexdigest()
    assert digest == GOLDEN_REPORTS[n]
