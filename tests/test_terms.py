"""Set term semantics: membership, truncation, exact classification."""

import gc
import pickle
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import idealconv as ic
from idealconv import Universe
from idealconv import serialize as S
from idealconv import terms as T

NAT = Universe.NAT
PAIR = Universe.NATPAIR


# Independent evaluator used as the membership oracle.  Written straight
# from the intended set semantics, no package internals.
def ev(t, e):
    k = type(t).__name__
    if k == "Empty":
        return False
    if k == "Full":
        return True
    if k == "FiniteSet":
        return e in t.elements
    if k == "Tail":
        return e >= t.start
    if k == "UpperQuad":
        return e[0] >= t.start and e[1] >= t.start
    if k == "Row":
        return e[1] == t.index
    if k == "Col":
        return e[0] == t.index
    if k == "Block":
        p = t.partition
        if p.pid == "columns":
            return e[0] == t.index
        if p.pid == "corner":
            return min(e) == t.index
        if p.pid == "ruler":
            n, v = e, 0
            while n % 2 == 0:
                n //= 2
                v += 1
            return v == t.index - 1
        m = p.modulus
        return e % m == (t.index % m)
    if k == "Compl":
        return not ev(t.term, e)
    if k == "Union":
        return any(ev(s, e) for s in t.terms)
    if k == "Inter":
        return all(ev(s, e) for s in t.terms)
    if k == "Diff":
        return ev(t.left, e) and not ev(t.right, e)
    raise AssertionError(k)


def brute(t, bound):
    return [e for e in ic.elements_upto(t.universe, bound) if ev(t, e)]


nat_atoms = st.one_of(
    st.just(ic.empty(NAT)),
    st.just(ic.full(NAT)),
    st.lists(st.integers(1, 40), max_size=4).map(lambda xs: ic.finite_set(NAT, xs)),
    st.integers(1, 30).map(ic.tail),
    st.integers(1, 4).map(lambda i: ic.block(ic.RULER, i)),
    st.integers(2, 5).flatmap(
        lambda m: st.integers(1, m).map(lambda i: ic.block(ic.residues(m), i))
    ),
)

pair_atoms = st.one_of(
    st.just(ic.empty(PAIR)),
    st.just(ic.full(PAIR)),
    st.lists(
        st.tuples(st.integers(1, 12), st.integers(1, 12)), max_size=4
    ).map(lambda xs: ic.finite_set(PAIR, xs)),
    st.integers(1, 10).map(ic.upper_quad),
    st.integers(1, 10).map(ic.row),
    st.integers(1, 10).map(ic.col),
    st.integers(1, 6).map(lambda i: ic.block(ic.COLUMNS, i)),
    st.integers(1, 6).map(lambda i: ic.block(ic.CORNER, i)),
)


def _ops(kids):
    pairs = st.tuples(kids, kids)
    return st.one_of(
        kids.map(ic.compl),
        pairs.map(lambda ab: ic.union(*ab)),
        pairs.map(lambda ab: ic.inter(*ab)),
        pairs.map(lambda ab: ic.diff(*ab)),
    )


nat_terms = st.recursive(nat_atoms, _ops, max_leaves=6)
pair_terms = st.recursive(pair_atoms, _ops, max_leaves=6)
any_terms = nat_terms | pair_terms


# --- frozen point values ---


def test_member_frozen():
    assert ic.member(ic.tail(5), 4) is False
    assert ic.member(ic.tail(5), 5) is True
    assert ic.member(ic.upper_quad(4), (3, 9)) is False
    assert ic.member(ic.upper_quad(4), (4, 4)) is True
    assert ic.member(ic.block(ic.RULER, 3), 12) is True  # 12 = 4*3
    assert ic.member(ic.block(ic.RULER, 3), 8) is False
    assert ic.member(ic.block(ic.residues(3), 3), 9) is True  # class 3 = multiples
    assert ic.member(ic.compl(ic.row(2)), (7, 2)) is False


def test_truncate_frozen():
    # oracle: brute loops over the box, checked against the frozen lists
    t = ic.inter(ic.row(2), ic.col(3))
    assert brute(t, 10) == [(3, 2)]
    assert ic.truncate(t, 10) == [(3, 2)]

    t2 = ic.diff(ic.tail(4), ic.block(ic.RULER, 1))
    expect = [n for n in range(4, 21) if n % 2 == 0]
    assert brute(t2, 20) == expect
    assert ic.truncate(t2, 20) == expect

    t3 = ic.inter(ic.upper_quad(3), ic.block(ic.CORNER, 3))
    expect3 = [(a, b) for a in range(1, 6) for b in range(1, 6)
               if a >= 3 and b >= 3 and min(a, b) == 3]
    assert ic.truncate(t3, 5) == expect3


@settings(max_examples=200)
@given(any_terms, st.integers(1, 25))
def test_truncate_matches_oracle(t, bound):
    assert ic.truncate(t, bound) == brute(t, bound)


@settings(max_examples=200)
@given(nat_terms, st.integers(1, 60))
def test_member_matches_oracle_nat(t, e):
    assert ic.member(t, e) == ev(t, e)


@settings(max_examples=200)
@given(pair_terms, st.integers(1, 15), st.integers(1, 15))
def test_member_matches_oracle_pair(t, a, b):
    assert ic.member(t, (a, b)) == ev(t, (a, b))


# --- normal forms agree with pointwise semantics ---


@settings(max_examples=200)
@given(nat_terms, st.integers(1, 200))
def test_nat_normal_form(t, e):
    assert ic.nat_value(t).contains(e) == ev(t, e)


@settings(max_examples=200)
@given(pair_terms, st.integers(1, 40), st.integers(1, 40))
def test_pair_normal_form(t, a, b):
    assert ic.pair_grid(t).contains((a, b)) == ev(t, (a, b))


# --- exact classification ---


def test_classify_frozen():
    c = ic.classify(ic.compl(ic.tail(4)))
    assert c.kind == "finite" and c.cardinality == 3
    assert list(c.elements) == [1, 2, 3]

    assert ic.classify(ic.inter(ic.tail(5), ic.compl(ic.tail(5)))).kind == "empty"
    assert ic.classify(ic.union(ic.tail(50), ic.finite_set(NAT, [2]))).kind == "infinite"
    assert ic.classify(ic.diff(ic.full(PAIR), ic.row(1))).kind == "infinite"

    c2 = ic.classify(ic.inter(ic.row(2), ic.col(3)))
    assert c2.kind == "finite" and list(c2.elements) == [(3, 2)]


@settings(max_examples=150)
@given(any_terms)
def test_classify_consistent_with_truncation(t):
    c = ic.classify(t)
    lo = ic.truncate(t, 30)
    if c.kind == "empty":
        assert lo == []
    elif c.kind == "finite":
        hi = ic.truncate(t, 30 + 2 * max(
            [max(e) if isinstance(e, tuple) else e for e in c.elements] or [1]
        ))
        assert list(c.elements) == hi
        assert len(hi) == c.cardinality
    else:
        # infinite sets keep producing new members as the box grows
        hi = ic.truncate(t, 120)
        assert len(hi) > len(lo) or len(lo) >= 30


@settings(max_examples=150)
@given(nat_terms)
def test_classify_finite_iff_complement_coinfinite_nat(t):
    # exactly one of t, compl(t) can be finite or empty on an infinite universe
    a = ic.classify(t).kind
    b = ic.classify(ic.compl(t)).kind
    assert a == "infinite" or b == "infinite"


# --- boolean laws, pointwise ---


@settings(max_examples=150)
@given(nat_terms, nat_terms, st.integers(1, 50))
def test_de_morgan(p, q, e):
    lhs = ic.compl(ic.union(p, q))
    rhs = ic.inter(ic.compl(p), ic.compl(q))
    assert ic.member(lhs, e) == ic.member(rhs, e)


@settings(max_examples=150)
@given(nat_terms, nat_terms, st.integers(1, 50))
def test_diff_as_inter_compl(p, q, e):
    assert ic.member(ic.diff(p, q), e) == ic.member(ic.inter(p, ic.compl(q)), e)


# --- partitions ---


PARTS = [ic.COLUMNS, ic.CORNER, ic.RULER, ic.residues(3), ic.residues(7)]


@settings(max_examples=200)
@given(st.sampled_from(PARTS), st.integers(1, 40), st.integers(1, 40))
def test_blocks_partition_the_universe(p, a, b):
    e = (a, b) if p.universe is PAIR else a
    i = ic.block_of(p, e)
    assert i >= 1
    assert ic.block_contains(p, i, e)
    for j in range(1, 8):
        assert ic.block_contains(p, j, e) == (j == i)


@settings(max_examples=200)
@given(st.sampled_from(PARTS), st.integers(1, 8), st.integers(0, 60))
def test_block_count_upto_exact(p, i, bound):
    # oracle: count members inside the box by looping
    n = sum(
        1 for e in ic.elements_upto(p.universe, max(bound, 1))
        if (e[0] <= bound and e[1] <= bound if p.universe is PAIR else e <= bound)
        and ic.block_of(p, e) == i
    )
    assert ic.block_count_upto(p, i, bound) == n


@settings(max_examples=100)
@given(st.sampled_from(PARTS), st.integers(1, 6), st.integers(1, 30))
def test_bound_for_count_guarantee(p, i, k):
    if p.modulus is not None and i > p.modulus:
        from idealconv.errors import PreconditionViolated
        with pytest.raises(PreconditionViolated):
            ic.bound_for_count(p, i, k)
        return
    b = ic.bound_for_count(p, i, k)
    assert ic.block_count_upto(p, i, b) >= k


def test_block_count_inputs_are_checked():
    # typed errors, not asserts, so the checks hold under python -O too
    from idealconv.errors import PreconditionViolated

    for call in (
        lambda: ic.block_count_upto(ic.COLUMNS, 0, 5),
        lambda: ic.block_count_upto(ic.RULER, 1, -1),
        lambda: ic.bound_for_count(ic.CORNER, 0, 2),
        lambda: ic.bound_for_count(ic.RULER, 2, 0),
    ):
        with pytest.raises(PreconditionViolated):
            call()


def test_block_count_frozen():
    # ruler block 1 at 10: odds 1,3,5,7,9
    assert ic.block_count_upto(ic.RULER, 1, 10) == 5
    # ruler block 3 at 20: 4, 12, 20
    assert ic.block_count_upto(ic.RULER, 3, 20) == 3
    # corner block 2 at 4: hook (2,2),(2,3),(2,4),(3,2),(4,2)
    assert ic.block_count_upto(ic.CORNER, 2, 4) == 5
    assert ic.block_count_upto(ic.COLUMNS, 3, 7) == 7
    assert ic.block_count_upto(ic.residues(4), 2, 10) == 3  # 2, 6, 10


def test_residues_has_finitely_many_blocks():
    p = ic.residues(5)
    assert not p.infinitely_many_infinite_blocks
    assert p.modulus == 5
    import pytest
    with pytest.raises(Exception):
        ic.partition_ideal(p)


def test_partition_by_id_roundtrip():
    for p in PARTS:
        assert ic.partition_by_id(p.pid) == p
    import pytest
    with pytest.raises(ValueError):
        ic.partition_by_id("diagonal-stripes")


def test_atom_indices_must_be_positive_integers():
    for bad in (0, -3, "x", 1.0, True, None):
        for make in (ic.tail, ic.upper_quad, ic.row, ic.col):
            with pytest.raises(ic.PreconditionViolated):
                make(bad)
        with pytest.raises(ic.PreconditionViolated):
            ic.block(ic.RULER, bad)
    with pytest.raises(ic.PreconditionViolated):
        ic.block(ic.residues(3), 4)


def test_union_and_inter_need_an_operand():
    for make in (ic.union, ic.inter):
        with pytest.raises(ic.PreconditionViolated):
            make()


def test_residue_modulus_must_be_a_positive_integer():
    for bad in (0, -2, "3", True):
        with pytest.raises(ic.PreconditionViolated):
            ic.residues(bad)


# --- hash-consing: one node per structure ---


def _nested():
    return ic.diff(
        ic.union(ic.block(ic.RULER, 2), ic.finite_set(NAT, [7])), ic.compl(ic.tail(3))
    )


def test_equal_constructions_are_one_node():
    t = _nested()
    assert _nested() is t
    assert S.term_from_obj(S.term_to_obj(t)) is t
    assert ic.finite_set(NAT, [3, 1, 3]) is ic.finite_set(NAT, (1, 3))
    assert ic.block(ic.residues(3), 2) is ic.block(ic.residues(3), 2)
    assert ic.empty(NAT) is not ic.empty(PAIR)
    assert ic.tail(3) is not ic.compl(ic.tail(3))
    assert ic.union(ic.tail(3), ic.tail(4)) is not ic.union(ic.tail(4), ic.tail(3))


def _structure(t):
    return S.canonical_dumps(S.term_to_obj(t))


@settings(max_examples=200)
@given(any_terms, any_terms)
def test_identity_is_structural_equality(a, b):
    assert S.term_from_obj(S.term_to_obj(a)) is a
    assert (a is b) == (_structure(a) == _structure(b))


def test_unreachable_terms_leave_the_table():
    t = ic.union(ic.tail(98_765), ic.finite_set(NAT, [98_764]))
    assert ic.classify(t).cardinality is None
    refs = [weakref.ref(n) for n in (t, *t.terms)]
    del t
    gc.collect()
    assert all(r() is None for r in refs)
    assert (T.Tail, 98_765) not in T._NODES


def test_repr_is_structural():
    assert repr(_nested()) == (
        "Diff(left=Union(terms=(Block(partition=Partition(ruler), index=2), "
        "FiniteSet(universe=Universe.NAT, elements=frozenset({7})))), "
        "right=Compl(term=Tail(start=3, universe=Universe.NAT)))"
    )


def test_universe_hash_is_identity():
    table = {u: u.value for u in Universe}
    for u in Universe:
        assert pickle.loads(pickle.dumps(u)) is u
        assert table[u] == u.value
        assert hash(u) == object.__hash__(u)
