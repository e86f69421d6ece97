"""Additive transfer analysis and its refutation machinery."""

import pytest
from hypothesis import given, settings, strategies as st

import idealconv as ic
from idealconv import ApStatus, Universe
from idealconv.errors import FamilyNotInIdeal, FinitePartition, SampleNotInIdeal

NAT = Universe.NAT
PAIR = Universe.NATPAIR
ODDS = ic.block(ic.RULER, 1)


def test_verdicts_frozen():
    v = ic.additive_property(ic.partition_ideal(ic.COLUMNS), ic.fin(PAIR))
    assert v.status is ApStatus.FAILS
    assert v.witness is not None and v.witness.partition.pid == "columns"

    v2 = ic.additive_property(ic.pringsheim(), ic.fin(PAIR))
    assert v2.status is ApStatus.FAILS
    assert v2.witness.partition.pid == "corner"

    v3 = ic.additive_property(ic.fin(NAT), ic.fin(NAT))
    assert v3.status is ApStatus.HOLDS and "absorbs" in v3.rule

    v4 = ic.additive_property(ic.principal(ic.tail(5)), ic.fin(NAT))
    assert v4.status is ApStatus.HOLDS and "largest" in v4.rule

    v5 = ic.additive_property(ic.fin(PAIR), ic.pringsheim())
    assert v5.status is ApStatus.HOLDS  # fin sits inside every admissible ideal

    v6 = ic.additive_property(
        ic.partition_ideal(ic.COLUMNS), ic.partition_ideal(ic.CORNER)
    )
    assert v6.status is ApStatus.HOLDS

    v7 = ic.additive_property(
        ic.partition_ideal(ic.CORNER), ic.partition_ideal(ic.COLUMNS)
    )
    assert v7.status is ApStatus.UNKNOWN


def test_block_family_members_are_ideal_members():
    w = ic.refute_partition_fin(ic.COLUMNS)
    uni = ic.partition_ideal(ic.COLUMNS)
    for n in range(1, 6):
        m = w.member(n)
        assert ic.in_ideal(uni, m)
        assert not ic.in_ideal(ic.fin(PAIR), m)
    with pytest.raises(FinitePartition):
        ic.refute_partition_fin(ic.residues(3))


def test_pi1_search_finds_absorber():
    i = ic.principal(ic.tail(10))
    fam = [ic.tail(15), ic.finite_set(NAT, [11, 12])]
    res = ic.pi1_search(
        i, ic.fin(NAT), fam, [ic.finite_set(NAT, [11]), ic.tail(10)]
    )
    assert res.found and res.witness == ic.tail(10)

    res2 = ic.pi1_search(i, ic.fin(NAT), fam, [ic.finite_set(NAT, [11])])
    assert not res2.found and res2.witness is None

    with pytest.raises(FamilyNotInIdeal):
        ic.pi1_search(i, ic.fin(NAT), [ic.tail(9)], [ic.tail(10)])


def test_pi1_search_blocks_defeat_every_column_candidate():
    # the refuting family: no candidate member almost contains all blocks
    uni = ic.partition_ideal(ic.COLUMNS)
    w = ic.refute_partition_fin(ic.COLUMNS)
    fam = [w.member(n) for n in range(1, 5)]
    candidates = [
        ic.union(*[ic.col(i) for i in range(1, m + 1)]) for m in (1, 2, 3)
    ]
    res = ic.pi1_search(uni, ic.fin(PAIR), fam, candidates)
    assert not res.found


@settings(max_examples=60)
@given(st.sampled_from([ic.COLUMNS, ic.CORNER, ic.RULER]), st.data())
def test_certify_failure_on_random_members(p, data):
    # union of a few whole blocks plus finite noise is a clean member
    hi = 5
    ix = data.draw(st.lists(st.integers(1, hi), min_size=1, max_size=3, unique=True))
    blocks = ic.union(*[ic.block(p, i) for i in ix])
    if p.universe is PAIR:
        noise = data.draw(
            st.lists(st.tuples(st.integers(1, 8), st.integers(1, 8)), max_size=3)
        )
    else:
        noise = data.draw(st.lists(st.integers(1, 16), max_size=3))
    a = ic.union(blocks, ic.finite_set(p.universe, noise))
    w = ic.refute_partition_fin(p)
    rep = ic.certify_failure_on_truncation(w, [a], ic.bound_for_count(p, hi + 1, 3))
    assert rep.certified, rep.rows


def test_certify_rejects_non_members():
    w = ic.refute_partition_fin(ic.COLUMNS)
    with pytest.raises(SampleNotInIdeal):
        ic.certify_failure_on_truncation(w, [ic.row(1)], 30)


def test_certify_report_shape():
    w = ic.refute_partition_fin(ic.RULER)
    rep = ic.certify_failure_on_truncation(w, [ODDS], 40)
    assert rep.certified
    row = rep.rows[0]
    # odds are block 1, so the first untouched block is block 2
    assert row.block_index == 2
    assert row.survivors == row.census
    assert row.survivors >= 1


def test_pi_crosscheck_small():
    rep = ic.pi_condition_crosscheck(2)
    assert rep.ok
    assert rep.pairs == 16  # 4 ideals on two points, ordered pairs


def test_certify_searches_past_infinitely_met_blocks():
    # whole columns 1..3 plus finite noise in columns 4 and 5: column 4 is
    # the first block with finite overlap
    noise = ic.finite_set(PAIR, [(4, 1), (5, 2)])
    a = ic.union(ic.col(1), ic.col(2), ic.col(3), noise)
    w = ic.refute_partition_fin(ic.COLUMNS)
    rep = ic.certify_failure_on_truncation(w, [a], 40)
    assert rep.certified
    row = rep.rows[0]
    assert row.block_index == 4
    assert row.overlap == 1
