"""Bitmask PeriodicSet against the frozenset algebra it replaced.

The reference below is the frozenset implementation of the normal form
that the bitmasks replaced: every Boolean operation walks each n below
the threshold and each r below the period.  The engine must reach the
same normal form (threshold, period, residue set, members below the
threshold) and the same incidences on every term.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import idealconv as ic
from idealconv import Universe, cli
from idealconv.errors import PreconditionViolated
from idealconv.natset import PeriodicSet, v2

NAT = Universe.NAT


@dataclass(frozen=True)
class Ref:
    threshold: int
    period: int
    residues: frozenset
    below: frozenset

    def contains(self, n):
        if n < self.threshold:
            return n in self.below
        return (n % self.period) in self.residues

    def _combine(self, other, op):
        t = max(self.threshold, other.threshold)
        p = self.period // gcd(self.period, other.period) * other.period
        residues = frozenset(
            r
            for r in range(p)
            if op((r % self.period) in self.residues, (r % other.period) in other.residues)
        )
        below = frozenset(
            n for n in range(1, t) if op(self.contains(n), other.contains(n))
        )
        return Ref(t, p, residues, below)._reduced()

    def compl(self):
        return Ref(
            self.threshold,
            self.period,
            frozenset(range(self.period)) - self.residues,
            frozenset(range(1, self.threshold)) - self.below,
        )

    def _reduced(self):
        p, res = self.period, self.residues
        divs = sorted(d for d in range(1, p + 1) if p % d == 0)
        for d in divs:
            if d == p:
                break
            if all(((r + d) % p in res) == (r in res) for r in range(p)):
                return Ref(self.threshold, d, frozenset(r % d for r in res), self.below)
        return self

    def residue_incidence(self, m):
        # classes met below the threshold, and over one joint period of
        # the pattern and the modulus beyond it
        window = range(1, self.threshold + m * self.period)
        return tuple(sorted({n % m or m for n in window if self.contains(n)}))

    def ruler_incidence(self):
        indices = set()
        a = v2(self.period) if self.period % 2 == 0 else 0
        for r in self.residues:
            if r == 0 or v2(r) >= a:
                return (False, None)
            indices.add(v2(r) + 1)
        indices.update(v2(n) + 1 for n in self.below)
        return (True, frozenset(indices))


def ref_value(t):
    k = type(t).__name__
    if k == "Empty":
        return Ref(1, 1, frozenset(), frozenset())
    if k == "Full":
        return Ref(1, 1, frozenset({0}), frozenset())
    if k == "FiniteSet":
        els = frozenset(t.elements)
        return Ref(max(els) + 1 if els else 1, 1, frozenset(), els)
    if k == "Tail":
        return Ref(t.start, 1, frozenset({0}), frozenset())
    if k == "Block":
        p = t.partition
        if p.pid == "ruler":
            m, r = 1 << t.index, 1 << (t.index - 1)
        else:
            m, r = p.modulus, t.index % p.modulus
        return Ref(1, m, frozenset({r % m}), frozenset())
    if k == "Compl":
        return ref_value(t.term).compl()
    if k in ("Union", "Inter"):
        op = (lambda a, b: a or b) if k == "Union" else (lambda a, b: a and b)
        acc = ref_value(t.terms[0])
        for s in t.terms[1:]:
            acc = acc._combine(ref_value(s), op)
        return acc
    if k == "Diff":
        return ref_value(t.left)._combine(ref_value(t.right), lambda a, b: a and not b)
    raise AssertionError(k)


def _bitset(mask):
    return frozenset(i for i, c in enumerate(reversed(bin(mask)[2:])) if c == "1")


def _modulus_block(m):
    return st.integers(1, m).map(lambda i: ic.block(ic.residues(m), i))


def _ops(kids):
    pairs = st.tuples(kids, kids)
    return st.one_of(
        kids.map(ic.compl),
        pairs.map(lambda ab: ic.union(*ab)),
        pairs.map(lambda ab: ic.inter(*ab)),
        pairs.map(lambda ab: ic.diff(*ab)),
    )


# periods 2..12 interleave with the incidence moduli 2..7 (6 and 10
# against 4, 9 against 6, 12 against 5 and 7)
small_atoms = st.one_of(
    st.just(ic.empty(NAT)),
    st.just(ic.full(NAT)),
    st.lists(st.integers(1, 60), max_size=5).map(lambda xs: ic.finite_set(NAT, xs)),
    st.integers(1, 60).map(ic.tail),
    st.integers(1, 6).map(lambda i: ic.block(ic.RULER, i)),
    st.integers(2, 12).flatmap(_modulus_block),
)

# magnitudes: tails up to 10^5, ruler blocks up to 16 (period 65536);
# residue classes mod 3 and 6 only, so that the reference's walk over
# the joint period stays short
big_atoms = st.one_of(
    st.just(ic.full(NAT)),
    st.integers(1, 6).map(lambda i: ic.block(ic.RULER, i)),
    st.sampled_from((3, 6)).flatmap(_modulus_block),
    st.integers(1, 10**5).map(ic.tail),
    st.integers(1, 16).map(lambda i: ic.block(ic.RULER, i)),
    st.lists(st.integers(1, 10**5), min_size=1, max_size=3).map(
        lambda xs: ic.finite_set(NAT, xs)
    ),
)


def _check_against_reference(t, moduli):
    v = ic.nat_value(t)
    ref = ref_value(t)
    assert (v.threshold, v.period) == (ref.threshold, ref.period)
    assert _bitset(v.residues) == ref.residues
    assert _bitset(v.below) == ref.below
    for n in list(range(1, 151)) + [v.threshold - 1, v.threshold, v.threshold + v.period]:
        if n >= 1:
            assert v.contains(n) == ref.contains(n)
    if v.is_finite():
        assert v.elements() == sorted(ref.below)
    assert v.ruler_incidence() == ref.ruler_incidence()
    assert ic.partition_incidence(ic.RULER, t) == (
        (True, tuple(sorted(ref.ruler_incidence()[1])))
        if ref.ruler_incidence()[0]
        else (False, None)
    )
    for m in moduli:
        assert ic.partition_incidence(ic.residues(m), t) == (True, ref.residue_incidence(m))


@settings(max_examples=300)
@given(st.recursive(small_atoms, _ops, max_leaves=6))
def test_normal_form_matches_frozenset_reference(t):
    _check_against_reference(t, range(2, 8))


@settings(max_examples=25)
@given(st.recursive(big_atoms, _ops, max_leaves=4))
def test_normal_form_matches_reference_at_magnitude(t):
    _check_against_reference(t, (3, 7))


def test_normal_form_fixed_cases():
    # period 6 pattern {1, 3, 5} reduces to the odd class mod 2
    t = ic.union(ic.block(ic.residues(6), 1), ic.block(ic.residues(6), 3),
                 ic.block(ic.residues(6), 5))
    v = ic.nat_value(t)
    assert (v.threshold, v.period, _bitset(v.residues)) == (1, 2, {1})
    # complement of a finite set below a tail
    v = ic.nat_value(ic.compl(ic.union(ic.finite_set(NAT, [2, 5]), ic.tail(9))))
    assert (v.threshold, v.period, _bitset(v.residues), _bitset(v.below)) == (
        9, 1, frozenset(), {1, 3, 4, 6, 7, 8}
    )
    # period 4 against modulus 6: classes 2 mod 4 meet the even classes
    t = ic.block(ic.RULER, 2)
    assert ic.partition_incidence(ic.residues(6), t) == (True, (2, 4, 6))


# -- cost grows with term size, not integer magnitude (verdicts only) --


def test_bad_finite_input_raises_precondition_violated():
    for elems in ([0], [3, -1], ["a"]):
        with pytest.raises(PreconditionViolated):
            PeriodicSet.from_finite(elems)
    with pytest.raises(PreconditionViolated):
        ic.finite_top(["a", "a"], [[], ["a"]])


def test_large_tail_against_ruler_block():
    assert ic.classify(ic.inter(ic.tail(10**7), ic.block(ic.RULER, 1))).kind == "infinite"


def test_ruler_diagonal_far_from_target():
    f = ic.diagonal_function(ic.RULER, 1, 22)
    assert ic.converges(f, ic.fin(NAT), 2) is ic.Verdict.NO


def test_ruler_corner_pushforward_of_deep_row():
    i = ic.pushforward(ic.partition_ideal(ic.RULER), ic.RULER_CORNER)
    assert ic.in_ideal(i, ic.row(18)) is True


# -- a mask longer than 2**24 bits raises SizeTooLarge before it is built --

HUGE_ATOMS = [
    ic.block(ic.RULER, 40),
    ic.finite_set(NAT, [10**12]),
    ic.block(ic.residues(10**12), 3),
]


@pytest.mark.parametrize("t", HUGE_ATOMS)
def test_huge_atom_raises_size_too_large(t):
    with pytest.raises(ic.SizeTooLarge):
        ic.classify(t)
    with pytest.raises(ic.SizeTooLarge):
        ic.in_ideal(ic.partition_ideal(ic.RULER), t)


def test_huge_tail_needs_a_mask_only_when_combined():
    assert ic.classify(ic.tail(10**12)).kind == "infinite"
    with pytest.raises(ic.SizeTooLarge):
        ic.classify(ic.compl(ic.tail(10**12)))
    with pytest.raises(ic.SizeTooLarge):
        ic.classify(ic.inter(ic.tail(10**12), ic.tail(3)))


def test_mask_budget_edge():
    assert ic.classify(ic.block(ic.RULER, 24)).kind == "infinite"
    assert ic.classify(ic.compl(ic.block(ic.RULER, 24))).kind == "infinite"
    with pytest.raises(ic.SizeTooLarge):
        ic.classify(ic.block(ic.RULER, 25))


def test_residue_incidence_of_large_modulus():
    t = ic.inter(ic.tail(50), ic.block(ic.residues(7), 3))
    hit = ic.partition_incidence(ic.residues(10**5), t)[1]
    assert len(hit) == 10**5 and hit[:3] == (1, 2, 3)
    t = ic.block(ic.residues(6), 4)
    # gcd(6, 10**5) = 2, so the class 4 mod 6 meets every even class
    assert ic.partition_incidence(ic.residues(10**5), t)[1] == tuple(range(2, 10**5 + 1, 2))
    # lcm(2**20, 97) is past the mask budget; the classes only need gcd 1
    t = ic.block(ic.residues(2**20), 3)
    assert ic.partition_incidence(ic.residues(97), t) == (True, tuple(range(1, 98)))
    t = ic.finite_set(NAT, [5, 7])
    assert ic.partition_incidence(ic.residues(10**12), t) == (True, (5, 7))


@pytest.mark.parametrize("t", HUGE_ATOMS)
def test_huge_atom_exits_2_in_cli(t):
    term = json.dumps(ic.serialize.term_to_obj(t))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["set", "classify", "--term", term, "--ideal", "mac:ruler"])
    assert rc == 2 and out.getvalue() == "" and err.getvalue().startswith("error:")


# -- big integers are refused on the exponent, in a child with capped memory --


def _run_capped(code: str, mb: int) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter whose address space is capped at
    mb MiB; the cap is set inside that child only."""
    cap = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({mb} << 20, {mb} << 20))\n"
    src = os.path.dirname(os.path.dirname(ic.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", cap + code], capture_output=True, text=True, env=env, timeout=120
    )


BIG_EXPONENTS = """
import json
import idealconv as ic

push = ic.pushforward(ic.partition_ideal(ic.RULER), ic.RULER_CORNER)
calls = [
    lambda: ic.in_ideal(push, ic.row(20000)),
    lambda: ic.in_ideal(push, ic.col(20000)),
    lambda: ic.in_ideal(push, ic.upper_quad(20000)),
    lambda: ic.classify(ic.block(ic.RULER, 10000)),
    lambda: ic.classify(ic.block(ic.RULER, 10**10)),
]
out = []
for call in calls:
    try:
        call()
        out.append(None)
    except Exception as e:
        out.append([type(e).__name__, str(e)])
print(json.dumps(out))
"""


def test_big_exponents_raise_size_too_large_in_512_mib():
    r = _run_capped(BIG_EXPONENTS, 512)
    assert r.returncode == 0, r.stderr
    for name, msg in json.loads(r.stdout):
        assert name == "SizeTooLarge" and len(msg) < 100


def test_big_ruler_block_exits_2_with_a_short_message_in_512_mib():
    term = json.dumps({"atom": "block", "partition": "ruler", "index": 10000})
    code = f"import sys\nfrom idealconv import cli\nsys.exit(cli.main(['set', 'classify', '--term', {term!r}]))\n"
    r = _run_capped(code, 512)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error:") and len(r.stderr) < 120


def test_classify_counts_before_it_lists_in_256_mib():
    code = (
        "import idealconv as ic\n"
        "c = ic.classify(ic.compl(ic.tail(10**7)))\n"
        "print(c.kind, c.cardinality, c.elements)\n"
    )
    r = _run_capped(code, 256)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["finite", "9999999", "None"]


# -- input checks hold under python -O, where assert statements vanish --

PRECONDITIONS = """
import json
from idealconv.natset import PeriodicSet, v2
from idealconv.pairset import IntervalSet

infinite = PeriodicSet.from_tail(3)
calls = {
    "v2": lambda: v2(0),
    "from_tail": lambda: PeriodicSet.from_tail(0),
    "from_residue": lambda: PeriodicSet.from_residue(0, 1),
    "card": infinite.card,
    "elements": infinite.elements,
    "members": IntervalSet.of((3, None)).members,
}
out = {}
for name, call in calls.items():
    try:
        out[name] = repr(call())
    except Exception as e:
        out[name] = type(e).__name__
print(json.dumps(out))
"""


def test_preconditions_raise_under_optimize_flag():
    src = os.path.dirname(os.path.dirname(ic.__file__))
    r = subprocess.run(
        [sys.executable, "-O", "-c", PRECONDITIONS],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == dict.fromkeys(
        ("v2", "from_tail", "from_residue", "card", "elements", "members"), "PreconditionViolated"
    )
