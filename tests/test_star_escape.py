"""The escape-term route of the star ladder: convergence of f overwritten
with x outside m is decided as in_ideal(j, escape & m), and agrees with
building the modified function and deciding it afresh.  The escape term
itself, the regions whose value lies outside the kernel of x, is the term
the stabilisation-radius construction builds."""

import hashlib
import math
import random
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
        return _ref_union(f.universe, out)
    kp = _ref_stab_k(f, x)
    d = f.diagonal
    if d is None:
        return _ref_union(f.universe, _ref_piece_escape(f, x, kp))
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
    return _ref_union(f.universe, _ref_piece_escape(f, x, k) + [diag_escape])


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
