"""The escape-term route of the star ladder: convergence of f overwritten
with x outside m is decided as in_ideal(j, escape & m), and agrees with
building the modified function and deciding it afresh.  The escape term
itself, the regions whose value lies outside the kernel of x, is the term
the stabilisation-radius construction builds."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as Fr

from hypothesis import given, settings, strategies as st

import idealconv as ic
import idealconv.convergence as conv
from idealconv import METRIC_LINE, Universe, sampling
from idealconv import terms as T
from idealconv.errors import AdmissibilityRequired, IdealConvError
from idealconv.finite import (
    _all_fns,
    _spaces_upto,
    encode_fn,
    encode_ideal,
    encode_space,
    enumerate_ideals,
)
from idealconv.functions import remainder_term, validate_fn, value_points

NAT = Universe.NAT
PAIR = Universe.NATPAIR
ODD = ic.block(ic.residues(2), 1)
EVEN = ic.block(ic.residues(2), 2)


def _outcome(decide, *args):
    try:
        return decide(*args)
    except AdmissibilityRequired:
        return AdmissibilityRequired


def _assert_same(f, m, j, x):
    from idealconv.convergence import _converges_overwritten

    got = _outcome(_converges_overwritten, f, m, j, x)
    want = _outcome(ic.converges, ic.modify_on(f, m, x), j, x)
    assert got is want, (f, m, j, x, got, want)


def _corpus_regions(corpus):
    """Per universe: every piece term of a corpus function, its
    complement, the full and the empty set."""
    out = {}
    for fx in corpus:
        u = fx.fn.universe
        regions = out.setdefault(u, {ic.full(u), ic.empty(u)})
        for t, _ in fx.fn.pieces:
            regions.update((t, ic.compl(t)))
    return {u: sorted(r, key=repr) for u, r in out.items()}


def test_overwrite_matches_rebuilt_function_on_corpus():
    corpus = sampling.fixture_corpus()
    regions = _corpus_regions(corpus)
    checked = 0
    for fx in corpus:
        for m in regions[fx.fn.universe]:
            for j in (fx.base, fx.aux):
                _assert_same(fx.fn, m, j, fx.x)
                checked += 1
    assert checked > 1000


_VALUES = st.fractions(min_value=-2, max_value=2, max_denominator=3)
_IDEALS = (
    ic.fin(NAT),
    ic.partition_ideal(ic.RULER),
    ic.principal(ic.tail(4)),
    ic.principal(ODD),
    ic.trace_ideal(ic.fin(NAT), ODD),
    ic.improper(NAT),
)


@st.composite
def metric_cases(draw):
    """A metric function on NAT with Const and TailsTo pieces, with or
    without a ruler diagonal, and a target that is a declared value, the
    diagonal's own target, or any small rational."""
    k = draw(st.integers(1, 6))
    head = ic.finite_set(NAT, list(range(1, k)))
    spec = st.builds(ic.Const, _VALUES) | st.builds(ic.TailsTo, _VALUES)
    diagonal = None
    default = None
    if draw(st.booleans()):
        # the pieces cover a finite head and maybe the odd tail; the
        # diagonal takes the rest
        regions = [head] + ([ic.inter(ODD, ic.tail(k))] if draw(st.booleans()) else [])
        scale = draw(_VALUES.filter(lambda v: v != 0))
        diagonal = ic.DiagonalFamily(ic.RULER, draw(_VALUES), scale)
    else:
        regions = [ic.inter(ODD, ic.tail(k)), ic.inter(EVEN, ic.tail(k))]
        if draw(st.booleans()):
            regions.append(head)
        else:
            default = draw(_VALUES)
    pieces = tuple((t, draw(spec)) for t in regions)
    f = ic.PiecewiseFn(NAT, METRIC_LINE, pieces, diagonal, default)
    declared = [Fr(v) for v in value_points(f)]
    x = draw(st.sampled_from(declared) | _VALUES)
    return f, x


@settings(max_examples=300, deadline=None)
@given(metric_cases(), st.integers(0, 10**6), st.sampled_from(_IDEALS))
def test_overwrite_matches_rebuilt_function_on_metric_functions(case, seed, j):
    f, x = case
    m = sampling.random_term(random.Random(seed), NAT, depth=2)
    _assert_same(f, m, j, x)


def test_overwrite_at_and_away_from_diagonal_target():
    f = ic.PiecewiseFn(
        NAT,
        METRIC_LINE,
        ((ic.finite_set(NAT, [1, 2]), ic.TailsTo(3)),),
        ic.DiagonalFamily(ic.RULER, Fr(1), Fr(-1)),
    )
    for x in (Fr(1), Fr(0), Fr(1, 2), Fr(3)):
        for m in (ODD, ic.compl(ic.block(ic.RULER, 2)), ic.tail(5), ic.full(NAT)):
            for j in _IDEALS:
                _assert_same(f, m, j, x)


def _star_line(r):
    w = r.witness
    return repr(
        (r.verdict.value, r.reason, None if w is None else repr(w.m), None if w is None else w.note)
    )


# pins the verdict, reason, witness term and note of every star question
# below, so any change in what the ladder answers shows here
GOLDEN_STAR_SHA256 = "aab8a73e53d6f37f937742cb9545ecd2cc2b1d01abcacd30765ec1cbd3417e8e"


def test_star_results_golden():
    h = hashlib.sha256()
    n = 0
    for fx in sampling.fixture_corpus():
        h.update(_star_line(ic.star_converges(fx.fn, fx.base, fx.aux, fx.x)).encode() + b"\n")
        n += 1
    for s in range(1, 4):
        enc = [encode_ideal(i) for i in enumerate_ideals(s)]
        for sp in _spaces_upto(3):
            spe = encode_space(sp)
            for fn in _all_fns(s, sp.m):
                for x in range(sp.m):
                    f = encode_fn(fn, spe, x)
                    for i in enc:
                        for j in enc:
                            h.update(_star_line(ic.star_converges(f, i, j, x)).encode() + b"\n")
                            n += 1
    assert n == 168_762
    assert h.hexdigest() == GOLDEN_STAR_SHA256


def test_agreement_sweep_builds_no_modified_function(monkeypatch):
    calls = []

    def counting(f, m, x):
        calls.append(x)
        return ic.modify_on(f, m, x)

    # every name in the module bound to modify_on, directly or through a
    # cache wrapper
    for name, v in list(vars(conv).items()):
        if v is ic.modify_on or getattr(v, "__wrapped__", None) is ic.modify_on:
            monkeypatch.setattr(conv, name, counting)
    rep = ic.agreement_sweep(2)
    assert rep.ok
    assert calls == []


# --- the kernel rule against the stabilisation-radius construction ---
#
# The reference below is the escape construction the kernel rule replaced:
# it finds a radius 1/k below every nonzero distance from x to a declared
# value, and for a diagonal away from its target doubles k until the ball
# around x holds no block but the one whose value is x.


def _ref_union(universe, ts):
    return T.union(*ts) if ts else T.empty(universe)


def _ref_escape(universe, regions):
    """An escape of one region is that region, not a one-operand union."""
    return regions[0] if len(regions) == 1 else _ref_union(universe, regions)


def _ref_stab_k(f, x):
    k = 1
    vals = [s.value for _, s in f.pieces]
    if f.default is not None:
        vals.append(f.default)
    for v in vals:
        d = abs(ic.as_fraction(v) - x)
        if d != 0:
            k = max(k, math.floor(1 / d) + 1)
    return k


def _ref_piece_escape(f, x, k):
    kf = Fr(1, k)
    out = []
    for t, s in f.pieces:
        v = ic.as_fraction(s.value)
        if v != x and abs(v - x) >= kf:
            out.append(t)
    rem = remainder_term(f)
    if f.default is not None and not ic.classify(rem).is_empty():
        v = ic.as_fraction(f.default)
        if v != x and abs(v - x) >= kf:
            out.append(rem)
    return out


def _ref_inside_blocks(c, delta, k):
    kf = Fr(1, k)
    assert abs(delta) > kf
    if c * delta <= 0:
        return range(0)
    c, d = abs(c), abs(delta)
    return range(math.floor(c / (d + kf)) + 1, math.ceil(c / (d - kf)))


def _ref_escape_term(f, x):
    if isinstance(f.codomain, ic.FiniteTop):
        u = f.codomain.min_nbhd(x)
        out = [t for t, s in f.pieces if s.value not in u]
        rem = remainder_term(f)
        if f.default is not None and not ic.classify(rem).is_empty() and f.default not in u:
            out.append(rem)
        return _ref_escape(f.universe, out)
    kp = _ref_stab_k(f, x)
    d = f.diagonal
    if d is None:
        return _ref_escape(f.universe, _ref_piece_escape(f, x, kp))
    c = ic.as_fraction(d.scale)
    delta = x - ic.as_fraction(d.target)
    if delta == 0:
        return None
    q = c / delta
    exact = {int(q)} if q.denominator == 1 and q >= 1 else set()
    k = max(kp, math.floor(1 / abs(delta)) + 1)
    while any(n not in exact for n in _ref_inside_blocks(c, delta, k)):
        k *= 2
    keep = [T.block(d.partition, n) for n in sorted(exact)]
    pu = _ref_union(f.universe, [t for t, _ in f.pieces])
    diag_escape = T.diff(T.diff(T.full(f.universe), _ref_union(f.universe, keep)), pu)
    return _ref_escape(f.universe, _ref_piece_escape(f, x, k) + [diag_escape])


_SPACES = (
    ic.sierpinski(),
    ic.discrete(("a", "b", "c")),
    ic.indiscrete(("a", "b")),
    ic.finite_top(("a", "b", "c"), [set(), {"a"}, {"a", "b"}, {"a", "b", "c"}]),
)
_HEADS = {NAT: ic.finite_set(NAT, [1, 2, 3]), PAIR: ic.finite_set(PAIR, [(1, 1), (1, 2), (2, 1)])}
_PARTITIONS = {NAT: (ic.RULER,), PAIR: (ic.COLUMNS, ic.CORNER)}


@st.composite
def escape_cases(draw):
    """A valid function on either universe and either kind of codomain,
    with or without a diagonal, and a target: a declared value, a point
    near or on the diagonal's blocks, any small rational, or a value that
    is not a point of the codomain."""
    u = draw(st.sampled_from((NAT, PAIR)))
    rng = random.Random(draw(st.integers(0, 10**6)))
    metric = draw(st.booleans())
    if metric:
        codomain, value = METRIC_LINE, _VALUES
        spec = st.builds(ic.Const, _VALUES) | st.builds(ic.TailsTo, _VALUES)
    else:
        codomain = draw(st.sampled_from(_SPACES))
        value = st.sampled_from(codomain.points)
        spec = st.builds(ic.Const, value)
    pieces, used = [], ic.empty(u)
    for _ in range(draw(st.integers(0, 3))):
        t = ic.diff(sampling.random_term(rng, u, depth=2), used)
        used = ic.union(used, t)
        pieces.append((t, draw(spec)))
    diagonal = default = None
    if metric and draw(st.booleans()):
        p = draw(st.sampled_from(_PARTITIONS[u]))
        diagonal = ic.DiagonalFamily(p, draw(_VALUES), draw(_VALUES.filter(lambda v: v != 0)))
    else:
        # the last piece leaves a finite head, or nothing, to the default
        head = _HEADS[u] if draw(st.booleans()) else ic.empty(u)
        pieces.append((ic.diff(ic.compl(used), head), draw(spec)))
        if not ic.classify(ic.diff(head, used)).is_empty() or draw(st.booleans()):
            default = draw(value)
    f = ic.PiecewiseFn(u, codomain, tuple(pieces), diagonal, default)
    assert validate_fn(f).ok
    if draw(st.integers(0, 9)) == 7:
        return f, "z"
    if not metric:
        return f, draw(value)
    near = st.nothing()
    if diagonal is not None:
        n = st.integers(1, 40)
        near = n.map(lambda n: diagonal.target + diagonal.scale / n) | n.map(
            lambda n: diagonal.target + diagonal.scale / n + Fr(1, 97)
        ) | st.just(diagonal.target)
    return f, draw(st.sampled_from(value_points(f)) | _VALUES | near)


def _escape_outcome(escape, f, x):
    try:
        return escape(f, conv._check_target(f, x))
    except IdealConvError as e:
        return type(e), str(e)


@settings(max_examples=400, deadline=None)
@given(escape_cases())
def test_escape_is_the_stabilisation_radius_term(case):
    f, x = case
    got = _escape_outcome(conv._escape, f, x)
    want = _escape_outcome(_ref_escape_term, f, x)
    if isinstance(want, tuple):
        assert got == want, (f, x)
    else:
        assert got is want, (f, x)


# --- rungs (a)-(c) on escape terms, against the per-function ladder ---
#
# The reference below is the ladder before rungs (a)-(c) were cached per
# (escape, base, aux): every rung asks its convergence questions of f,
# and rung (e) tries every piece mask in ascending order, each re-verified
# from the definition.


def _ref_subset_search(f, i, j, x):
    eligible = conv._eligible_pieces(f, i)
    if not eligible:
        return None
    a_max = conv._union(f.universe, eligible)
    vmax = conv._decided(conv._converges_overwritten, f, T.compl(a_max), j, x)
    if vmax is ic.Verdict.UNKNOWN:
        return None
    if vmax is ic.Verdict.NO:
        return ic.StarResult(
            ic.Verdict.UNKNOWN, None,
            "no union of pieces inside the base ideal works as an overwrite region",
        )
    for mask in range(1, 1 << len(eligible)):
        a = conv._union(f.universe, [t for b, t in enumerate(eligible) if mask >> b & 1])
        w = ic.Witness(T.compl(a), "union of pieces inside the base ideal")
        if ic.verify_witness(f, i, j, x, w):
            return ic.StarResult(ic.Verdict.YES, w, "piece-union overwrite region")
    return None


def _ref_star(f, i, j, x):
    YES, NO, UNKNOWN = ic.Verdict.YES, ic.Verdict.NO, ic.Verdict.UNKNOWN
    x = conv._check_target(f, x)
    seen_unknown = False
    v = conv._decided(conv._converges_cached, f, j, x)
    if v is YES:
        return ic.StarResult(YES, ic.Witness(ic.full(f.universe), "no modification needed"),
                             "already convergent along the auxiliary ideal")
    if v is UNKNOWN:
        seen_unknown = True
    if ic.known_subset(j, i):
        vi = conv._decided(conv._converges_cached, f, i, x)
        if vi is NO:
            return ic.StarResult(
                NO, None,
                "the auxiliary ideal refines the base ideal, so star "
                "convergence would force base convergence, which fails",
            )
        if vi is UNKNOWN:
            seen_unknown = True
    if ic.has_maximum(i):
        mt = ic.maximum_term(i)
        if mt is not None:
            w = ic.Witness(T.compl(mt), "complement of the largest member")
            vm = conv._decided(conv._converges_overwritten, f, w.m, j, x)
            if vm is YES:
                return ic.StarResult(YES, w, "overwrite on the largest member")
            if vm is NO:
                return ic.StarResult(
                    NO, None,
                    "overwriting the largest member is the strongest "
                    "modification available, and it fails",
                )
            seen_unknown = True
    if ic.additive_property(i, j).status is ic.ApStatus.HOLDS:
        vi = conv._decided(conv._converges_cached, f, i, x)
        if vi is YES:
            off = [t for t, v in conv._regions(f) if v != x]
            if f.diagonal is not None:
                off.append(T.compl(conv._piece_union(f)))
            b = conv._union(f.universe, off)
            if ic.in_ideal(i, b):
                w = ic.Witness(T.compl(b), "complement of the off-target region")
                try:
                    if ic.verify_witness(f, i, j, x, w):
                        return ic.StarResult(YES, w, "additive transfer of base convergence")
                except AdmissibilityRequired:
                    pass
        elif vi is UNKNOWN:
            seen_unknown = True
    res = _ref_subset_search(f, i, j, x)
    if res is not None and res.verdict is YES:
        return res
    ref = conv._diagonal_refutation(f, i, j, x)
    if ref is not None:
        return ref
    reason = "no decision rule applied" if res is None else res.reason
    if seen_unknown:
        reason += "; some subordinate convergence questions were undecided"
    return ic.StarResult(UNKNOWN, None, reason)


def _assert_star_same(f, i, j, x):
    got, want = ic.star_converges(f, i, j, x), _ref_star(f, i, j, x)
    assert _star_line(got) == _star_line(want), (f, i, j, x)


def test_star_matches_reference_ladder_on_corpus():
    for fx in sampling.fixture_corpus():
        _assert_star_same(fx.fn, fx.base, fx.aux, fx.x)
        _assert_star_same(fx.fn, fx.aux, fx.base, fx.x)


def test_star_matches_reference_ladder_on_finite_models():
    n = 0
    for s in range(1, 4):
        enc = [encode_ideal(i) for i in enumerate_ideals(s)]
        for sp in _spaces_upto(3):
            spe = encode_space(sp)
            for fn in _all_fns(s, sp.m):
                for x in range(sp.m):
                    f = encode_fn(fn, spe, x)
                    for i in enc:
                        for j in enc:
                            _assert_star_same(f, i, j, x)
                            n += 1
    assert n == 168_664


@settings(max_examples=300, deadline=None)
@given(metric_cases(), st.sampled_from(_IDEALS), st.sampled_from(_IDEALS))
def test_star_matches_reference_ladder_on_metric_functions(case, i, j):
    # TailsTo pieces under inadmissible ideals and diagonals at their own
    # target take the per-function checks; the rest share the escape cache
    f, x = case
    _assert_star_same(f, i, j, x)


def test_functions_with_one_escape_share_the_cached_result():
    i, j = ic.principal(ODD), ic.fin(NAT)
    f = ic.piecewise(NAT, METRIC_LINE, [(ODD, ic.Const(1)), (EVEN, ic.Const(0))])
    g = ic.piecewise(NAT, METRIC_LINE, [(ODD, ic.Const(2)), (EVEN, ic.Const(0))])
    assert f is not g and conv._escape(f, Fr(0)) is conv._escape(g, Fr(0))
    r = ic.star_converges(f, i, j, 0)
    assert r.reason == "overwrite on the largest member"
    assert ic.star_converges(g, i, j, 0) is r
    # a re-built copy compares equal to f, and shares the result too
    copy = ic.PiecewiseFn(f.universe, f.codomain, f.pieces, f.diagonal, f.default)
    assert copy == f and copy is not f
    assert ic.star_converges(copy, i, j, 0) is r


def test_star_no_results_are_shared_constants():
    # the NO results of rungs (b) and (c) are module constants, so the
    # escape cache holds references, not copies
    f = ic.piecewise(NAT, METRIC_LINE, [(ODD, ic.Const(1)), (EVEN, ic.Const(0))])
    assert ic.star_converges(f, ic.fin(NAT), ic.fin(NAT), 0) is conv._REFINES_NO
    assert ic.star_converges(f, ic.principal(EVEN), ic.fin(NAT), 0) is conv._MAXIMUM_NO


FRESH_STAR_QUESTIONS = """
import gc, json
import idealconv as ic
from idealconv import convergence as conv, terms as T

bound = conv._star_on_escape.cache_info().maxsize
nat = ic.Universe.NAT
fin = ic.fin(nat)
before = len(T._NODES)
results = set()
for k in range(1, 3 * bound + 1):
    # a fresh escape per question: the finite set of the 1-based bit
    # positions of k (already convergent) or the tail from k (rung (b) NO)
    t = ic.finite_set(nat, [b + 1 for b in range(k.bit_length()) if k >> b & 1]) if k & 1 else ic.tail(k)
    f = ic.PiecewiseFn(nat, ic.METRIC_LINE, ((t, ic.Const(1)), (ic.compl(t), ic.Const(0))))
    results.add(id(ic.star_converges(f, fin, fin, 0)))
del f, t
gc.collect()
print(json.dumps([bound, conv._star_on_escape.cache_info().currsize, len(T._NODES) - before, len(results)]))
"""


def test_fresh_star_questions_pin_at_most_the_bound():
    # three times the bound in fresh star questions: the escape cache
    # holds at most the bound, and each entry pins one node, the fresh
    # one-region escape itself; both results are shared constants
    src = os.path.dirname(os.path.dirname(ic.__file__))
    out = subprocess.run(
        [sys.executable, "-c", FRESH_STAR_QUESTIONS], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=300,
    )
    assert out.returncode == 0, out.stderr
    bound, entries, nodes, results = json.loads(out.stdout)
    assert bound is not None
    assert entries <= bound and nodes <= bound + 16
    assert results == 2


MANY_COLUMNS = """
import json, time
import idealconv as ic

pair = ic.Universe.NATPAIR
cols = [ic.col(k) for k in range(1, 41)]
f = ic.piecewise(pair, ic.METRIC_LINE, [(c, ic.Const(1)) for c in cols] + [(ic.compl(ic.union(*cols)), ic.Const(0))])
t = time.perf_counter()
r = ic.star_converges(f, ic.partition_ideal(ic.COLUMNS), ic.fin(pair), 0)
elapsed = time.perf_counter() - t
print(json.dumps([r.verdict.value, r.reason, r.witness.m is ic.compl(ic.union(*cols)), elapsed]))
"""


def test_piece_search_is_linear_in_the_pieces():
    # only the union of all 40 columns works, the last mask of 2^40 - 1
    # in ascending order; the greedy search needs 41 checks
    src = os.path.dirname(os.path.dirname(ic.__file__))
    out = subprocess.run(
        [sys.executable, "-c", MANY_COLUMNS], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=3,
    )
    assert out.returncode == 0, out.stderr
    verdict, reason, full_mask, elapsed = json.loads(out.stdout)
    assert (verdict, reason, full_mask) == ("yes", "piece-union overwrite region", True)
    assert elapsed < 1
