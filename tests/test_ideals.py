"""Ideal catalog: membership axioms, flags, order relations."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

import idealconv as ic
from idealconv import Tri, Universe
from idealconv import serialize as S
from idealconv import terms as T
from idealconv.errors import (
    FinitePartition,
    PreconditionViolated,
    PreimageNotRepresentable,
    UniverseMismatch,
)
from idealconv.pairset import PairGrid

NAT = Universe.NAT
PAIR = Universe.NATPAIR

ODDS = ic.block(ic.RULER, 1)


def walk():
    return ic.bijection_by_name("ruler_corner")


# terms whose pushforward preimages always exist: finite, tail, dyadic atoms
push_safe_atoms = st.one_of(
    st.just(ic.empty(NAT)),
    st.lists(st.integers(1, 30), max_size=3).map(lambda xs: ic.finite_set(NAT, xs)),
    st.integers(1, 20).map(ic.tail),
    st.integers(1, 4).map(lambda i: ic.block(ic.RULER, i)),
)


def _ops(kids):
    pairs = st.tuples(kids, kids)
    return st.one_of(
        kids.map(ic.compl),
        pairs.map(lambda ab: ic.union(*ab)),
        pairs.map(lambda ab: ic.inter(*ab)),
        pairs.map(lambda ab: ic.diff(*ab)),
    )


nat_terms = st.recursive(
    push_safe_atoms | st.just(ic.full(NAT)), _ops, max_leaves=5
)

pair_atoms = st.one_of(
    st.just(ic.empty(PAIR)),
    st.just(ic.full(PAIR)),
    st.lists(st.tuples(st.integers(1, 10), st.integers(1, 10)), max_size=3).map(
        lambda xs: ic.finite_set(PAIR, xs)
    ),
    st.integers(1, 6).map(ic.upper_quad),
    st.integers(1, 6).map(ic.row),
    st.integers(1, 6).map(ic.col),
    st.integers(1, 5).map(lambda i: ic.block(ic.COLUMNS, i)),
    st.integers(1, 5).map(lambda i: ic.block(ic.CORNER, i)),
)
pair_terms = st.recursive(pair_atoms, _ops, max_leaves=5)


def blocks_union(p, lo=1, hi=5):
    return st.lists(st.integers(lo, hi), min_size=1, max_size=3).map(
        lambda ix: ic.union(*[ic.block(p, i) for i in ix])
    )


# (ideal, member strategy, arbitrary-term strategy) triples; the member
# strategy produces sets the ideal must accept
CASES = [
    (ic.fin(NAT),
     st.lists(st.integers(1, 40), max_size=5).map(lambda xs: ic.finite_set(NAT, xs)),
     nat_terms),
    (ic.fin(PAIR),
     st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), max_size=5).map(
         lambda xs: ic.finite_set(PAIR, xs)),
     pair_terms),
    (ic.improper(NAT), nat_terms, nat_terms),
    (ic.principal(ic.tail(10)),
     nat_terms.map(lambda t: ic.inter(t, ic.tail(10))),
     nat_terms),
    (ic.partition_ideal(ic.RULER), blocks_union(ic.RULER), nat_terms),
    (ic.partition_ideal(ic.COLUMNS), blocks_union(ic.COLUMNS), pair_terms),
    (ic.partition_ideal(ic.CORNER), blocks_union(ic.CORNER), pair_terms),
    (ic.pringsheim(), blocks_union(ic.CORNER), pair_terms),
    (ic.uniform_product(ic.fin(NAT), 2),
     pair_terms.map(lambda t: ic.inter(t, ic.compl(ic.union(ic.col(1), ic.col(2))))),
     pair_terms),
    (ic.trace_ideal(ic.fin(NAT), ODDS),
     nat_terms.map(lambda t: ic.inter(t, ic.compl(ODDS))),
     nat_terms),
    (ic.pushforward(ic.pringsheim(), ic.invert(walk())),
     st.lists(st.integers(1, 4), min_size=1, max_size=3).map(
         lambda ix: ic.union(*[ic.block(ic.RULER, i) for i in ix])),
     nat_terms),
    (ic.pointwise_product(ic.fin(NAT), 2),
     pair_terms.map(lambda t: ic.inter(t, ic.compl(ic.union(ic.col(1), ic.col(2))))),
     pair_terms),
    (ic.pushforward(ic.fin(NAT), walk()),
     st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), max_size=5).map(
         lambda xs: ic.finite_set(PAIR, xs)),
     pair_terms),
]

CASE_IDS = st.integers(0, len(CASES) - 1)


@settings(max_examples=300)
@given(CASE_IDS, st.data())
def test_ideal_axioms(ci, data):
    i, members, terms = CASES[ci]
    assert ic.in_ideal(i, ic.empty(i.universe))
    m = data.draw(members)
    assert ic.in_ideal(i, m), (i, m)
    # hereditary: any subset of a member is a member
    t = data.draw(terms)
    try:
        assert ic.in_ideal(i, ic.inter(m, t))
        # additive: unions of members are members
        m2 = data.draw(members)
        assert ic.in_ideal(i, ic.union(m, m2))
    except PreimageNotRepresentable:
        assume(False)


@settings(max_examples=150)
@given(CASE_IDS, st.data())
def test_dual_filter_is_complement_route(ci, data):
    i, _, terms = CASES[ci]
    t = data.draw(terms)
    try:
        assert ic.in_filter(i, t) == ic.in_ideal(i, ic.compl(t))
    except PreimageNotRepresentable:
        assume(False)


def test_membership_frozen():
    assert ic.in_ideal(ic.fin(NAT), ic.finite_set(NAT, [3, 5])) is True
    assert ic.in_ideal(ic.fin(NAT), ic.tail(5)) is False
    p10 = ic.principal(ic.tail(10))
    assert ic.in_ideal(p10, ic.tail(12)) is True
    assert ic.in_ideal(p10, ic.tail(9)) is False
    assert ic.in_ideal(p10, ic.finite_set(NAT, [1, 2])) is False
    cols = ic.partition_ideal(ic.COLUMNS)
    assert ic.in_ideal(cols, ic.col(3)) is True
    assert ic.in_ideal(cols, ic.row(2)) is False
    assert ic.in_ideal(cols, ic.compl(ic.upper_quad(4))) is False
    assert ic.in_ideal(ic.pringsheim(), ic.compl(ic.upper_quad(4))) is True
    assert ic.in_ideal(ic.pringsheim(), ic.upper_quad(4)) is False
    up2 = ic.uniform_product(ic.fin(NAT), 2)
    assert ic.in_ideal(up2, ic.col(1)) is False
    assert ic.in_ideal(up2, ic.col(3)) is True
    tr = ic.trace_ideal(ic.fin(NAT), ODDS)
    assert ic.in_ideal(tr, ic.compl(ODDS)) is True
    assert ic.in_ideal(tr, ODDS) is False
    assert ic.in_ideal(tr, ic.tail(5)) is False


def test_mod_relations_frozen():
    assert ic.subseteq_mod(ic.fin(NAT), ic.tail(5), ic.tail(10)) is True
    assert ic.subseteq_mod(ic.fin(NAT), ic.tail(10), ODDS) is False
    assert ic.equiv_mod(
        ic.fin(NAT), ODDS, ic.union(ODDS, ic.finite_set(NAT, [2]))
    ) is True


@settings(max_examples=150)
@given(st.sampled_from([0, 2, 3, 4]), st.data())
def test_subseteq_mod_via_membership(ci, data):
    # oracle: the definition itself, a is in b mod j iff a minus b is small
    i, _, terms = CASES[ci]
    a, b = data.draw(terms), data.draw(terms)
    assert ic.subseteq_mod(i, a, b) == ic.in_ideal(i, ic.diff(a, b))


def test_flags_frozen():
    rows = [
        # ideal, admissible, proper, has_maximum
        (ic.fin(NAT), True, True, False),
        (ic.fin(PAIR), True, True, False),
        (ic.improper(NAT), True, False, True),
        (ic.principal(ic.tail(10)), False, True, True),
        (ic.principal(ic.full(NAT)), True, False, True),
        (ic.partition_ideal(ic.RULER), True, True, False),
        (ic.partition_ideal(ic.COLUMNS), True, True, False),
        (ic.pringsheim(), True, True, False),
        (ic.uniform_product(ic.fin(NAT), 2), True, True, False),
        (ic.trace_ideal(ic.fin(NAT), ODDS), True, True, False),
        (ic.pushforward(ic.pringsheim(), ic.invert(walk())), True, True, False),
    ]
    for i, adm, prop, hm in rows:
        assert ic.admissible(i) == adm, i
        assert ic.proper(i) == prop, i
        assert ic.has_maximum(i) == hm, i


def test_maximum_term_is_absorbing():
    # where a maximum is representable it is a member containing others
    i = ic.trace_ideal(ic.principal(ic.tail(10)), ic.tail(5))
    assert ic.has_maximum(i)
    mt = ic.maximum_term(i)
    assert mt is not None
    assert ic.in_ideal(i, mt)
    for m in [ic.tail(12), ic.finite_set(NAT, [1, 2, 3]), ic.compl(ic.tail(5))]:
        assert ic.in_ideal(i, m)
        assert ic.subseteq_mod(ic.principal(ic.empty(NAT)), m, mt), m

    assert ic.maximum_term(ic.fin(NAT)) is None
    assert ic.maximum_term(ic.improper(PAIR)) == ic.full(PAIR)

    # products and pushforwards of principal ideals, _lift_second included
    for i in [
        ic.uniform_product(ic.principal(ic.tail(3)), 2),
        ic.pointwise_product(ic.principal(ic.finite_set(NAT, [1, 2])), 3),
        ic.pushforward(ic.principal(ODDS), walk()),
        ic.pushforward(ic.principal(ic.tail(4)), ic.PAIRING),
    ]:
        mt = ic.maximum_term(i)
        assert mt is not None and ic.in_ideal(i, mt), i
    assert ic.maximum_term(ic.pushforward(ic.principal(ODDS), walk())) == ic.block(ic.CORNER, 1)
    # a ruler block has no lift to the pair universe
    i = ic.uniform_product(ic.principal(ODDS), 2)
    assert ic.has_maximum(i) and ic.maximum_term(i) is None


def test_known_subset_frozen():
    assert ic.known_subset(ic.fin(PAIR), ic.pringsheim()) is True
    assert ic.known_subset(
        ic.partition_ideal(ic.COLUMNS), ic.partition_ideal(ic.CORNER)
    ) is True
    assert ic.known_subset(ic.partition_ideal(ic.CORNER), ic.partition_ideal(ic.COLUMNS)) is False
    assert ic.known_subset(ic.pringsheim(), ic.partition_ideal(ic.CORNER)) is True
    assert ic.known_subset(ic.principal(ic.col(2)), ic.partition_ideal(ic.COLUMNS)) is True
    assert ic.known_subset(ic.fin(NAT), ic.principal(ic.tail(10))) is False
    assert ic.known_subset(ic.fin(NAT), ic.improper(NAT)) is True
    with pytest.raises(UniverseMismatch):
        ic.known_subset(ic.fin(NAT), ic.pringsheim())

    fin, ruler = ic.fin(NAT), ic.partition_ideal(ic.RULER)
    # traces of one set compare by their bases
    trace = ic.trace_ideal
    assert ic.known_subset(trace(fin, ODDS), trace(ruler, ODDS)) is True
    assert ic.known_subset(trace(ruler, ODDS), trace(fin, ODDS)) is False
    assert ic.known_subset(trace(fin, ODDS), trace(ruler, ic.tail(5))) is False
    # pushforwards along one bijection compare by their bases
    push = ic.pushforward
    assert ic.known_subset(push(fin, walk()), push(ruler, walk())) is True
    assert ic.known_subset(push(ruler, walk()), push(fin, walk())) is False
    # a pushforward of fin is fin, which lies in every admissible ideal
    assert ic.known_subset(push(fin, ic.PAIRING), push(ruler, walk())) is True
    # the two product kinds are one family at one cutoff
    uniform, pointwise = ic.uniform_product, ic.pointwise_product
    assert ic.known_subset(uniform(fin, 2), pointwise(fin, 2)) is True
    assert ic.known_subset(pointwise(fin, 2), uniform(fin, 2)) is True
    assert ic.known_subset(uniform(fin, 2), uniform(ruler, 2)) is True
    assert ic.known_subset(uniform(fin, 2), uniform(fin, 3)) is False
    assert ic.known_subset(pointwise(fin, 2), pointwise(ruler, 2)) is True


# the (a, b) case pairs whose containment known_subset claims
SUBSET_PAIRS = [
    (ai, bi)
    for ai, (a, _, _) in enumerate(CASES)
    for bi, (b, _, _) in enumerate(CASES)
    if a.universe is b.universe and ic.known_subset(a, b)
]


@settings(max_examples=200)
@given(st.sampled_from(SUBSET_PAIRS), st.data())
def test_known_subset_sound_on_members(pair, data):
    # a claimed containment must hold on every sampled member
    ai, bi = pair
    a, members, _ = CASES[ai]
    b = CASES[bi][0]
    m = data.draw(members)
    try:
        assert ic.in_ideal(b, m), (a, b, m)
    except PreimageNotRepresentable:
        assume(False)


def test_prefix_unions_frozen():
    assert ic.prefix_unions_in_ideal(ic.fin(NAT), ic.RULER) is Tri.FALSE
    assert ic.prefix_unions_in_ideal(ic.partition_ideal(ic.RULER), ic.RULER) is Tri.TRUE
    assert ic.prefix_unions_in_ideal(ic.partition_ideal(ic.CORNER), ic.COLUMNS) is Tri.TRUE
    assert ic.prefix_unions_in_ideal(ic.partition_ideal(ic.COLUMNS), ic.CORNER) is Tri.FALSE
    assert ic.prefix_unions_in_ideal(ic.improper(PAIR), ic.COLUMNS) is Tri.TRUE
    assert ic.prefix_unions_in_ideal(ic.principal(ic.tail(10)), ic.RULER) is Tri.FALSE
    assert ic.prefix_unions_in_ideal(
        ic.pushforward(ic.pringsheim(), ic.invert(walk())), ic.RULER
    ) is Tri.TRUE


@settings(max_examples=120)
@given(st.sampled_from([ic.COLUMNS, ic.CORNER, ic.RULER]), st.data())
def test_prefix_unions_probe_consistent(p, data):
    # a TRUE answer must survive spot checks at random depths
    i = CASES[data.draw(CASE_IDS)][0]
    assume(i.universe is p.universe)
    v = ic.prefix_unions_in_ideal(i, p)
    m = data.draw(st.integers(1, 7))
    pref = ic.union(*[ic.block(p, k) for k in range(1, m + 1)])
    got = ic.in_ideal(i, pref)
    if v is Tri.TRUE:
        assert got
    elif v is Tri.FALSE:
        # refutation lives at some prefix, not necessarily this one
        assert not ic.in_ideal(i, pref) or m < 8


@settings(max_examples=200)
@given(st.sampled_from([ic.COLUMNS, ic.CORNER, ic.RULER]), st.data())
def test_partition_incidence_covers_truncation(p, data):
    t = data.draw(pair_terms if p.universe is PAIR else nat_terms)
    finite, idx = ic.partition_incidence(p, t)
    seen = {ic.block_of(p, e) for e in ic.truncate(t, 30)}
    if finite:
        assert seen <= set(idx)
    else:
        more = {ic.block_of(p, e) for e in ic.truncate(t, 90)}
        assert seen <= more


def test_partition_incidence_frozen():
    fin1, idx = ic.partition_incidence(ic.COLUMNS, ic.union(ic.col(2), ic.col(5)))
    assert fin1 and idx == (2, 5)
    fin2, _ = ic.partition_incidence(ic.COLUMNS, ic.row(1))
    assert not fin2
    fin3, idx3 = ic.partition_incidence(ic.RULER, ic.finite_set(NAT, [4, 12, 7]))
    assert fin3 and idx3 == (1, 3)
    # pairs outside the quadrant have a small minimum, so the corner
    # incidence is exactly the blocks below the quadrant start
    fin4, idx4 = ic.partition_incidence(ic.CORNER, ic.compl(ic.upper_quad(3)))
    assert fin4 and idx4 == (1, 2)
    fin5, _ = ic.partition_incidence(ic.CORNER, ic.upper_quad(3))
    assert not fin5


def test_partition_incidence_on_residue_classes():
    # a tail meets every residue class; a finite set only its own classes
    assert ic.partition_incidence(ic.residues(3), ic.tail(2)) == (True, (1, 2, 3))
    assert ic.partition_incidence(
        ic.residues(3), ic.finite_set(NAT, [3, 6])
    ) == (True, (3,))


@settings(max_examples=150)
@given(pair_terms)
def test_pringsheim_two_routes(t):
    # grid route and partition route must agree term by term
    assert ic.quadrant_avoidance(t) == ic.in_ideal(
        ic.partition_ideal(ic.CORNER), t
    )


def test_rejections():
    with pytest.raises(FinitePartition):
        ic.partition_ideal(ic.residues(4))
    with pytest.raises(UniverseMismatch):
        ic.in_ideal(ic.fin(NAT), ic.row(1))
    with pytest.raises(UniverseMismatch):
        ic.trace_ideal(ic.fin(NAT), ic.row(1))


def test_product_constructors_check_their_inputs():
    for make in (ic.uniform_product, ic.pointwise_product):
        for bad in (0, -1, 1.5, True):
            with pytest.raises(PreconditionViolated):
                make(ic.fin(NAT), bad)
        with pytest.raises(UniverseMismatch):
            make(ic.fin(PAIR), 2)


POINTWISE_BASES = [
    ic.fin(NAT),
    ic.improper(NAT),
    ic.principal(ic.tail(10)),
    ic.partition_ideal(ic.RULER),
    ic.trace_ideal(ic.fin(NAT), ODDS),
]


@settings(max_examples=150)
@given(st.sampled_from(POINTWISE_BASES), st.integers(1, 20), pair_terms)
def test_pointwise_product_matches_per_x_loop(base, cutoff, t):
    # the definition: every cut at x = 1..cutoff lies in the base ideal
    g = ic.pair_grid(t)
    want = all(
        ic.in_ideal(base, T.interval_set_to_term(g.cut_at(x))) for x in range(1, cutoff + 1)
    )
    assert ic.in_ideal(ic.pointwise_product(base, cutoff), t) == want


def test_pointwise_product_cost_follows_the_grid_not_the_cutoff(monkeypatch):
    # one projection of the grid, and so one base-ideal call, per question
    # rather than one per x
    calls = []
    project_second = PairGrid.project_second
    monkeypatch.setattr(
        PairGrid, "project_second", lambda g, x: calls.append(x) or project_second(g, x)
    )
    ic.in_ideal.cache_clear()
    i = ic.pointwise_product(ic.fin(NAT), 10**5)
    for t, want in ((ic.row(1), True), (ic.col(10**5), False)):
        calls.clear()
        assert ic.in_ideal(i, t) == want
        assert calls == [10**5]


@settings(max_examples=150)
@given(st.booleans(), st.data())
def test_pushforward_of_fin_matches_preimage_route(back, data):
    # fin read through the bijection's preimage table, in both directions
    b = ic.invert(walk()) if back else walk()
    t = data.draw(nat_terms if back else pair_terms)
    i = ic.pushforward(ic.fin(b.source), b)
    assert ic.in_ideal(i, t) == ic.in_ideal(ic.fin(b.source), ic.preimage_term(b, t))


# --- bounded decision caches ---

FRESH_QUESTIONS = """
import gc, json
import idealconv as ic
from idealconv import terms as T

bound = ic.in_ideal.cache_info().maxsize
nat = ic.Universe.NAT
ideals = (ic.fin(nat), ic.principal(ic.tail(9)))
before = len(T._NODES)
for k in range(1, 3 * bound + 1):
    # a fresh term per question: the set of the 1-based bit positions of k
    t = ic.finite_set(nat, [b + 1 for b in range(k.bit_length()) if k >> b & 1])
    ic.in_ideal(ideals[k & 1], t)
gc.collect()
print(json.dumps([bound, ic.in_ideal.cache_info().currsize, len(T._NODES) - before]))
"""


def test_fresh_questions_pin_at_most_the_bound():
    # three times the bound in fresh in_ideal questions: the cache holds at
    # most the bound, and so do the live nodes it pins (counts, not RSS)
    src = os.path.dirname(os.path.dirname(ic.__file__))
    out = subprocess.run(
        [sys.executable, "-c", FRESH_QUESTIONS], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=300,
    )
    assert out.returncode == 0, out.stderr
    bound, entries, nodes = json.loads(out.stdout)
    assert bound is not None
    assert entries <= bound and nodes <= bound + 16


# --- hash-consing: one node per descriptor ---


def test_equal_ideals_are_one_node():
    assert ic.fin() is ic.fin() is ic.fin(NAT)
    assert ic.fin(PAIR) is not ic.fin(NAT)
    assert ic.pringsheim() is ic.pringsheim()
    assert ic.partition_ideal(ic.RULER) is not ic.partition_ideal(ic.COLUMNS)
    for build in (
        lambda: ic.trace_ideal(ic.partition_ideal(ic.RULER), ic.block(ic.residues(3), 2)),
        lambda: ic.uniform_product(ic.principal(ic.tail(4)), 2),
        lambda: ic.pointwise_product(ic.fin(NAT), 2),
        lambda: ic.pushforward(ic.fin(NAT), walk()),
        lambda: ic.improper(PAIR),
    ):
        i = build()
        assert build() is i
        assert S.ideal_from_obj(S.ideal_to_obj(i)) is i
    assert ic.uniform_product(ic.fin(NAT), 2) is not ic.pointwise_product(ic.fin(NAT), 2)
    assert ic.uniform_product(ic.fin(NAT), 2) is not ic.uniform_product(ic.fin(NAT), 3)


def test_trace_ideal_repr():
    i = ic.trace_ideal(ic.partition_ideal(ic.RULER), ic.block(ic.residues(3), 2))
    assert repr(i) == (
        "Ideal(trace, nat, Block(partition=Partition(residues:3), index=2), "
        "Ideal(partition, nat, ruler))"
    )
