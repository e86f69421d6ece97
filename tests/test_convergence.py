"""Codomain spaces, symbolic functions, and the convergence engines."""

import gc
import weakref
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

import idealconv as ic
from idealconv import METRIC_LINE, Universe, Verdict
from idealconv.errors import (
    AdmissibilityRequired,
    InvalidFunction,
    NotContinuous,
    NotStarConvergent,
    PreconditionViolated,
    UniverseMismatch,
)

NAT = Universe.NAT
PAIR = Universe.NATPAIR
ODDS = ic.block(ic.RULER, 1)


# --- spaces ---


def test_as_fraction_guards():
    assert ic.as_fraction(3) == Fr(3)
    assert ic.as_fraction(Fr(1, 2)) == Fr(1, 2)
    with pytest.raises(PreconditionViolated):
        ic.as_fraction(True)
    with pytest.raises(PreconditionViolated):
        ic.as_fraction("x")
    with pytest.raises(PreconditionViolated):
        ic.as_fraction(0.5)


def test_finite_top_validation():
    with pytest.raises(PreconditionViolated):
        ic.finite_top(("a", "b"), [{"a"}, {"a", "b"}])  # empty set missing
    with pytest.raises(PreconditionViolated):
        ic.finite_top(("a",), [set(), {"a"}, {"b"}])
    sp = ic.sierpinski()
    assert sp.min_nbhd("a") == frozenset({"a"})
    assert sp.min_nbhd("b") == frozenset({"a", "b"})
    assert not sp.is_hausdorff()
    assert ic.discrete(("x", "y", "z")).is_hausdorff()
    assert not ic.indiscrete(("x", "y")).is_hausdorff()


def test_named_spaces_reject_duplicate_points():
    # a repeated point would be listed twice as a limit
    for make in (ic.discrete, ic.indiscrete):
        with pytest.raises(PreconditionViolated):
            make([1, 1, 2])
    f = ic.constant_fn(NAT, ic.indiscrete([1, 2]), 1)
    assert ic.limits(f, ic.fin()) == (1, 2)


def test_table_map_continuity():
    sp = ic.sierpinski()
    d2 = ic.discrete(("u", "v"))
    # constant maps are always continuous
    m = ic.table_map(sp, d2, {"a": "u", "b": "u"})
    assert ic.map_value(m, "b") == "u"
    # the identity-like swap into a discrete target is not continuous
    with pytest.raises(NotContinuous):
        ic.table_map(sp, d2, {"a": "u", "b": "v"})
    with pytest.raises(PreconditionViolated):
        ic.table_map(sp, d2, {"a": "u"})


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-20, 20))
def test_affine_map_pointwise(a, b, v):
    m = ic.affine_map(a, b)
    assert ic.map_value(m, v) == a * v + b


# --- function validation and evaluation ---


def test_validate_fn_problems():
    bad = ic.PiecewiseFn(NAT, METRIC_LINE, ((ic.tail(3), ic.Const(1)), (ic.tail(7), ic.Const(2))))
    rep = ic.validate_fn(bad)
    assert not rep.ok and any("overlap" in p for p in rep.problems)

    uncovered = ic.PiecewiseFn(NAT, METRIC_LINE, ((ODDS, ic.Const(0)),))
    assert not ic.validate_fn(uncovered).ok

    needs_default = ic.PiecewiseFn(NAT, METRIC_LINE, ((ic.tail(4), ic.Const(0)),))
    rep2 = ic.validate_fn(needs_default)
    assert not rep2.ok and any("default" in p for p in rep2.problems)
    assert ic.validate_fn(
        ic.PiecewiseFn(NAT, METRIC_LINE, ((ic.tail(4), ic.Const(0)),), None, Fr(9))
    ).ok

    sp = ic.sierpinski()
    assert not ic.validate_fn(
        ic.PiecewiseFn(NAT, sp, ((ic.full(NAT), ic.TailsTo(Fr(0))),))
    ).ok
    assert not ic.validate_fn(
        ic.PiecewiseFn(NAT, METRIC_LINE, ((ic.full(NAT), ic.TailsTo(Fr(0), Fr(0))),))
    ).ok
    assert not ic.validate_fn(
        ic.PiecewiseFn(NAT, METRIC_LINE, (), ic.DiagonalFamily(ic.RULER, Fr(0), Fr(0)))
    ).ok
    with pytest.raises(InvalidFunction):
        ic.piecewise(NAT, METRIC_LINE, [(ic.tail(3), ic.Const(1)), (ic.tail(7), ic.Const(2))])


def test_evaluate_frozen():
    f = ic.piecewise(
        NAT, METRIC_LINE,
        [(ic.compl(ic.tail(6)), ic.Const(Fr(7))), (ic.tail(6), ic.TailsTo(Fr(2)))],
    )
    assert ic.evaluate(f, 3) == Fr(7)
    # global rank drift: at element 8 the tail piece gives 2 + 1/8
    assert ic.evaluate(f, 8) == Fr(2) + Fr(1, 8)

    d = ic.diagonal_function(ic.COLUMNS, 0)
    assert ic.evaluate(d, (3, 11)) == Fr(1, 3)
    d2 = ic.diagonal_function(ic.RULER, 1, -2)
    assert ic.evaluate(d2, 12) == 1 + Fr(-2, 3)  # 12 sits in dyadic block 3

    # pieces take priority over the diagonal
    g = ic.PiecewiseFn(
        PAIR, METRIC_LINE, ((ic.col(2), ic.Const(Fr(9))),),
        ic.DiagonalFamily(ic.COLUMNS, Fr(0)),
    )
    assert ic.evaluate(g, (2, 5)) == Fr(9)
    assert ic.evaluate(g, (3, 5)) == Fr(1, 3)


def test_evaluate_tailsto_rank_is_global_on_pairs():
    f = ic.piecewise(PAIR, METRIC_LINE, [(ic.full(PAIR), ic.TailsTo(Fr(0)))])
    # (1, 2) is the third element of the diagonal sweep
    assert ic.evaluate(f, (1, 2)) == Fr(1, 3)
    assert ic.evaluate(f, (1, 1)) == Fr(1, 1)


@settings(max_examples=100)
@given(st.integers(1, 60), st.integers(-4, 4), st.integers(-9, 9))
def test_compose_affine_commutes_with_evaluate(e, a, b):
    f = ic.piecewise(
        NAT, METRIC_LINE,
        [(ODDS, ic.Const(Fr(1, 2))), (ic.compl(ODDS), ic.TailsTo(Fr(3)))],
    )
    g = ic.compose(f, ic.affine_map(a, b))
    assert ic.evaluate(g, e) == a * ic.evaluate(f, e) + b


def test_compose_table_postcomposes():
    sp = ic.sierpinski()
    d1 = ic.discrete(("u",))
    f = ic.piecewise(NAT, sp, [(ODDS, ic.Const("a")), (ic.compl(ODDS), ic.Const("b"))])
    g = ic.compose(f, ic.table_map(sp, d1, {"a": "u", "b": "u"}))
    assert ic.evaluate(g, 4) == "u"


@settings(max_examples=100)
@given(st.integers(1, 50), st.integers(0, 9))
def test_modify_on_pointwise(e, x):
    f = ic.piecewise(
        NAT, METRIC_LINE,
        [(ODDS, ic.Const(Fr(1))), (ic.compl(ODDS), ic.Const(Fr(5)))],
    )
    m = ic.tail(10)
    g = ic.modify_on(f, m, Fr(x))
    expect = ic.evaluate(f, e) if ic.member(m, e) else Fr(x)
    assert ic.evaluate(g, e) == expect


# --- convergence, finite codomain ---


def test_finite_codomain_frozen():
    sp = ic.sierpinski()
    parity = ic.piecewise(
        NAT, sp, [(ODDS, ic.Const("a")), (ic.compl(ODDS), ic.Const("b"))]
    )
    # the open point separates, the dense point does not
    assert ic.converges(parity, ic.fin(NAT), "a") is Verdict.NO
    assert ic.converges(parity, ic.fin(NAT), "b") is Verdict.YES
    # evens split into infinitely many dyadic blocks, odds are one block
    assert ic.converges(parity, ic.partition_ideal(ic.RULER), "a") is Verdict.NO
    flipped = ic.piecewise(
        NAT, sp, [(ODDS, ic.Const("b")), (ic.compl(ODDS), ic.Const("a"))]
    )
    assert ic.converges(flipped, ic.partition_ideal(ic.RULER), "a") is Verdict.YES
    assert ic.limits(parity, ic.fin(NAT)) == ("b",)
    assert ic.limits(parity, ic.improper(NAT)) == ("a", "b")

    ind = ic.indiscrete(("x", "y"))
    h = ic.piecewise(NAT, ind, [(ic.full(NAT), ic.Const("x"))])
    assert ic.converges(h, ic.fin(NAT), "y") is Verdict.YES


def test_constant_converges_everywhere_reasonable():
    f = ic.constant_fn(NAT, METRIC_LINE, Fr(3))
    for i in [ic.fin(NAT), ic.partition_ideal(ic.RULER), ic.improper(NAT),
              ic.principal(ic.tail(10))]:
        assert ic.converges(f, i, Fr(3)) is Verdict.YES
    assert ic.converges(f, ic.fin(NAT), Fr(2)) is Verdict.NO
    # improper ideals absorb every escape
    assert ic.converges(f, ic.improper(NAT), Fr(2)) is Verdict.YES


# --- convergence, metric codomain ---


def test_tails_frozen():
    f = ic.piecewise(NAT, METRIC_LINE, [(ic.full(NAT), ic.TailsTo(Fr(0)))])
    assert ic.converges(f, ic.fin(NAT), Fr(0)) is Verdict.YES
    assert ic.converges(f, ic.fin(NAT), Fr(1)) is Verdict.NO
    with pytest.raises(AdmissibilityRequired):
        ic.converges(f, ic.principal(ic.tail(10)), Fr(0))


def test_diagonal_frozen():
    d = ic.diagonal_function(ic.COLUMNS, 0)
    uni = ic.partition_ideal(ic.COLUMNS)
    assert ic.converges(d, uni, Fr(0)) is Verdict.YES
    assert ic.converges(d, ic.fin(PAIR), Fr(0)) is Verdict.NO
    assert ic.converges(d, ic.pringsheim(), Fr(0)) is Verdict.YES
    # away from the target: block values hit 1/2 only on block 2
    assert ic.converges(d, uni, Fr(1, 2)) is Verdict.NO
    assert ic.converges(d, uni, Fr(1)) is Verdict.NO
    assert ic.limits(d, uni) == (Fr(0),)

    r = ic.diagonal_function(ic.RULER, 2, 3)
    mac = ic.partition_ideal(ic.RULER)
    assert ic.converges(r, mac, Fr(2)) is Verdict.YES
    assert ic.converges(r, ic.fin(NAT), Fr(2)) is Verdict.NO


@settings(max_examples=60)
@given(st.integers(1, 6), st.integers(-3, 3))
def test_diagonal_never_converges_to_block_values(i, s):
    # target + scale/i is taken on an infinite block, never absorbed by fin
    if s == 0:
        s = 1
    d = ic.diagonal_function(ic.COLUMNS, 0, s)
    v = Fr(s, i)
    assert ic.converges(d, ic.fin(PAIR), v) is Verdict.NO


def test_universe_mismatch_rejected():
    f = ic.constant_fn(NAT, METRIC_LINE, Fr(0))
    with pytest.raises(UniverseMismatch):
        ic.converges(f, ic.pringsheim(), Fr(0))
    with pytest.raises(UniverseMismatch):
        ic.star_converges(f, ic.fin(NAT), ic.fin(PAIR), Fr(0))
    with pytest.raises(PreconditionViolated):
        ic.converges(f, ic.fin(NAT), "a")


# --- star ladder ---


def test_star_rung_already_convergent():
    f = ic.constant_fn(NAT, METRIC_LINE, Fr(3))
    r = ic.star_converges(f, ic.fin(NAT), ic.fin(NAT), Fr(3))
    assert r.verdict is Verdict.YES
    assert r.witness.m == ic.full(NAT)
    assert ic.verify_witness(f, ic.fin(NAT), ic.fin(NAT), Fr(3), r.witness)


def test_star_rung_refining_aux():
    parity = ic.piecewise(
        NAT, METRIC_LINE, [(ODDS, ic.Const(Fr(1))), (ic.compl(ODDS), ic.Const(Fr(0)))]
    )
    r = ic.star_converges(parity, ic.fin(NAT), ic.fin(NAT), Fr(0))
    assert r.verdict is Verdict.NO
    assert "refines" in r.reason


def test_star_rung_maximum_yes():
    parity = ic.piecewise(
        NAT, METRIC_LINE, [(ODDS, ic.Const(Fr(1))), (ic.compl(ODDS), ic.Const(Fr(0)))]
    )
    i = ic.principal(ic.tail(10))
    r = ic.star_converges(parity, i, ic.fin(NAT), Fr(7))
    assert r.verdict is Verdict.YES
    assert r.reason == "overwrite on the largest member"
    assert ic.verify_witness(parity, i, ic.fin(NAT), Fr(7), r.witness)


def test_star_rung_maximum_no():
    f = ic.piecewise(
        NAT, METRIC_LINE,
        [(ic.compl(ODDS), ic.Const(Fr(4))), (ODDS, ic.Const(Fr(0)))],
    )
    r = ic.star_converges(f, ic.principal(ODDS), ic.fin(NAT), Fr(0))
    assert r.verdict is Verdict.NO
    assert "largest member" in r.reason


def test_star_rung_piece_subset():
    uni = ic.partition_ideal(ic.COLUMNS)
    f = ic.piecewise(
        PAIR, METRIC_LINE,
        [(ic.col(2), ic.Const(Fr(5))), (ic.compl(ic.col(2)), ic.Const(Fr(0)))],
    )
    r = ic.star_converges(f, uni, ic.fin(PAIR), Fr(0))
    assert r.verdict is Verdict.YES
    assert r.reason == "piece-union overwrite region"
    assert ic.verify_witness(f, uni, ic.fin(PAIR), Fr(0), r.witness)


def test_star_rung_diagonal_refutation():
    d = ic.diagonal_function(ic.COLUMNS, 0)
    uni = ic.partition_ideal(ic.COLUMNS)
    assert ic.converges(d, uni, Fr(0)) is Verdict.YES
    r = ic.star_converges(d, uni, ic.fin(PAIR), Fr(0))
    assert r.verdict is Verdict.NO
    assert "surviving block" in r.reason


def test_star_rung_additive_transfer():
    # only rung (d) decides this: (a) meets an undecided prefix-union
    # question along the trace ideal, (b) and (c) do not apply, (e) finds
    # no eligible piece since the evens meet every ruler block, and (f)
    # needs the finite auxiliary ideal
    evens = ic.block(ic.residues(2), 2)
    f = ic.piecewise(
        NAT, METRIC_LINE, [(evens, ic.Const(0))],
        diagonal=ic.DiagonalFamily(ic.RULER, Fr(0), Fr(1)),
    )
    i = ic.partition_ideal(ic.RULER)
    j = ic.trace_ideal(ic.partition_ideal(ic.RULER), ic.block(ic.residues(3), 1))
    assert ic.converges(f, j, 0) is Verdict.UNKNOWN
    assert ic.converges(f, i, 0) is Verdict.YES
    r = ic.star_converges(f, i, j, 0)
    assert r.verdict is Verdict.YES
    assert r.reason == "additive transfer of base convergence"
    assert r.witness.note == "complement of the off-target region"
    assert repr(r.witness.m) == (
        "Compl(term=Union(terms=(Compl(term=Union(terms=("
        "Block(partition=Partition(residues:2), index=2),))),)))"
    )
    assert ic.verify_witness(f, i, j, 0, r.witness)


def test_star_unknown_is_honest():
    push = ic.pushforward(ic.partition_ideal(ic.RULER), ic.bijection_by_name("ruler_corner"))
    d = ic.diagonal_function(ic.COLUMNS, 0)
    r = ic.star_converges(d, push, ic.fin(PAIR), Fr(0))
    assert r.verdict is Verdict.UNKNOWN
    assert r.witness is None


def _memo_cases():
    sierp = ic.encode_space(ic.FiniteSpace(2, (0, 0b01, 0b11)))
    base, aux = (ic.encode_ideal(ic.FiniteIdeal(3, g)) for g in (0b010, 0))
    yield ic.encode_fn((0, 1, 0), sierp, 0), base, aux, 0
    yield ic.diagonal_function(ic.COLUMNS, 0), ic.partition_ideal(ic.COLUMNS), ic.fin(PAIR), Fr(0)
    evens = ic.block(ic.residues(2), 2)
    f = ic.piecewise(NAT, METRIC_LINE, [(evens, ic.Const(0))], diagonal=ic.DiagonalFamily(ic.RULER, 0))
    yield f, ic.partition_ideal(ic.RULER), ic.fin(NAT), 0


@pytest.mark.parametrize("case", range(3))
def test_function_memos_die_with_the_function(case):
    # escape terms and verdicts live on the function itself, so once the
    # caller drops it nothing else keeps it alive
    f, i, j, x = list(_memo_cases())[case]
    ic.converges(f, i, x)
    ic.star_converges(f, i, j, x)
    memos = f.__dict__.get("_escape"), f.__dict__.get("_converges_cached")
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None
    assert all(memos)


def test_verify_witness_rejects_bad_region():
    f = ic.constant_fn(NAT, METRIC_LINE, Fr(3))
    w = ic.Witness(ODDS, "not cofinite")
    assert not ic.verify_witness(f, ic.fin(NAT), ic.fin(NAT), Fr(3), w)


# --- gap construction and decomposition ---


def test_gap_example_postconditions():
    i, j = ic.fin(NAT), ic.partition_ideal(ic.RULER)
    f = ic.gap_example(i, j, METRIC_LINE, Fr(0), Fr(1), ODDS)
    assert ic.converges(f, j, Fr(0)) is Verdict.YES
    assert ic.converges(f, i, Fr(0)) is Verdict.NO
    r = ic.star_converges(f, i, j, Fr(0))
    assert r.verdict is Verdict.YES


def test_gap_example_preconditions():
    i, j = ic.fin(NAT), ic.partition_ideal(ic.RULER)
    with pytest.raises(PreconditionViolated):
        ic.gap_example(i, j, METRIC_LINE, Fr(0), Fr(1), ic.tail(5))  # not in j
    with pytest.raises(PreconditionViolated):
        ic.gap_example(i, j, METRIC_LINE, Fr(0), Fr(0), ODDS)
    with pytest.raises(PreconditionViolated):
        ic.gap_example(j, j, METRIC_LINE, Fr(0), Fr(1), ODDS)  # in base ideal
    sp = ic.sierpinski()
    with pytest.raises(PreconditionViolated):
        ic.gap_example(i, j, sp, "b", "a", ODDS)  # a sits in every nbhd of b


@settings(max_examples=80)
@given(st.integers(1, 12), st.integers(1, 12))
def test_decompose_recombines(a, b):
    uni = ic.partition_ideal(ic.COLUMNS)
    f = ic.piecewise(
        PAIR, METRIC_LINE,
        [(ic.col(2), ic.Const(Fr(5))), (ic.compl(ic.col(2)), ic.Const(Fr(1, 3)))],
    )
    g, h, w = ic.decompose(f, uni, ic.fin(PAIR), Fr(1, 3))
    e = (a, b)
    assert ic.evaluate(g, e) + ic.evaluate(h, e) == ic.evaluate(f, e)
    if ic.member(w.m, e):
        assert ic.evaluate(h, e) == 0
    assert ic.converges(g, ic.fin(PAIR), Fr(1, 3)) is Verdict.YES


def test_decompose_requires_star_yes():
    d = ic.diagonal_function(ic.COLUMNS, 0)
    uni = ic.partition_ideal(ic.COLUMNS)
    with pytest.raises(NotStarConvergent):
        ic.decompose(d, uni, ic.fin(PAIR), Fr(0))
    sp = ic.sierpinski()
    f = ic.piecewise(NAT, sp, [(ic.full(NAT), ic.Const("a"))])
    with pytest.raises(PreconditionViolated):
        ic.decompose(f, ic.fin(NAT), ic.fin(NAT), "a")


def test_diagonal_far_from_target_at_large_scale():
    # the ball around x = 1 holds the single block c/1; its closed form
    # keeps this independent of the scale
    f = ic.diagonal_function(ic.COLUMNS, 0, 10**6)
    assert ic.converges(f, ic.partition_ideal(ic.COLUMNS), 1) is Verdict.NO
