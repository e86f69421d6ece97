"""The NATPAIR normal form: the cell mask against a per-cell sampler.

The reference below is the grid evaluation by sampling: one `_member`
tree walk at a representative of every cell of the same breakpoint grid,
with every reading computed cell by cell from the resulting truth table.
"""

import json
import os
import subprocess
import sys
from bisect import bisect_right

from hypothesis import given, settings, strategies as st

import idealconv as ic
from idealconv import Universe
from idealconv import terms as T
from idealconv.pairset import IntervalSet

PAIR = Universe.NATPAIR


class RefGrid:
    def __init__(self, t):
        xs, ys = {1}, {1}
        T._breaks(t, xs, ys)
        self.xcuts, self.ycuts = tuple(sorted(xs)), tuple(sorted(ys))
        self.truth = tuple(tuple(T._member(t, (a, b)) for b in self.ycuts) for a in self.xcuts)

    @staticmethod
    def _spans(cuts):
        return [(lo, cuts[i + 1] - 1 if i + 1 < len(cuts) else None) for i, lo in enumerate(cuts)]

    def contains(self, e):
        a, b = e
        return self.truth[bisect_right(self.xcuts, a) - 1][bisect_right(self.ycuts, b) - 1]

    def true_cells(self):
        xs, ys = self._spans(self.xcuts), self._spans(self.ycuts)
        for ix, col in enumerate(self.truth):
            for iy, val in enumerate(col):
                if val:
                    yield xs[ix], ys[iy]

    def is_empty(self):
        return not any(any(col) for col in self.truth)

    def is_finite(self):
        return all(xh is not None and yh is not None for (_, xh), (_, yh) in self.true_cells())

    def card(self):
        return sum((xh - xl + 1) * (yh - yl + 1) for (xl, xh), (yl, yh) in self.true_cells())

    def elements(self):
        return sorted(
            (a, b)
            for (xl, xh), (yl, yh) in self.true_cells()
            for a in range(xl, xh + 1)
            for b in range(yl, yh + 1)
        )

    def column_incidence(self):
        return IntervalSet.of(*(xs for xs, _ in self.true_cells()))

    def min_coord_incidence(self):
        return IntervalSet.of(
            *(
                (min(xl, yl), yh if xh is None else xh if yh is None else min(xh, yh))
                for (xl, xh), (yl, yh) in self.true_cells()
            )
        )

    def avoids_some_quadrant(self):
        return all(xh is not None or yh is not None for (_, xh), (_, yh) in self.true_cells())

    def project_second(self, x_limit):
        return IntervalSet.of(*(ys for (xl, _), ys in self.true_cells() if xl <= x_limit))

    def cut_at(self, x):
        return IntervalSet.of(
            *(ys for (xl, xh), ys in self.true_cells() if xl <= x and (xh is None or x <= xh))
        )


def assert_same_readings(t):
    g, ref = ic.pair_grid(t), RefGrid(t)
    assert (g.xcuts, g.ycuts) == (ref.xcuts, ref.ycuts)
    top = max(g.xcuts[-1], g.ycuts[-1]) + 2
    for a in range(1, top):
        for b in range(1, top):
            assert g.contains((a, b)) == ref.contains((a, b)), (a, b)
    for k in range(0, top):
        assert g.project_second(k) == ref.project_second(k), k
        assert g.cut_at(k) == ref.cut_at(k), k
    assert g.is_empty() == ref.is_empty()
    assert g.is_finite() == ref.is_finite()
    assert g.avoids_some_quadrant() == ref.avoids_some_quadrant()
    assert g.column_incidence() == ref.column_incidence()
    assert g.min_coord_incidence() == ref.min_coord_incidence()
    if ref.is_finite():
        assert g.card() == ref.card()
        assert g.elements() == ref.elements()


pair_atoms = st.one_of(
    st.just(ic.empty(PAIR)),
    st.just(ic.full(PAIR)),
    st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), max_size=5).map(
        lambda es: ic.finite_set(PAIR, es)
    ),
    st.integers(1, 10).map(ic.upper_quad),
    st.integers(1, 10).map(ic.row),
    st.integers(1, 10).map(ic.col),
    st.integers(1, 8).map(lambda i: ic.block(ic.COLUMNS, i)),
    st.integers(1, 8).map(lambda i: ic.block(ic.CORNER, i)),
)


def _ops(kids):
    pairs = st.tuples(kids, kids)
    return st.one_of(
        kids.map(ic.compl),
        pairs.map(lambda ab: ic.union(*ab)),
        pairs.map(lambda ab: ic.inter(*ab)),
        pairs.map(lambda ab: ic.diff(*ab)),
    )


@settings(max_examples=300)
@given(st.recursive(pair_atoms, _ops, max_leaves=8))
def test_mask_readings_match_the_cell_sampler(t):
    assert_same_readings(t)


FIXED = [
    ic.empty(PAIR),
    ic.full(PAIR),
    ic.row(3),
    ic.col(4),
    ic.upper_quad(5),
    ic.finite_set(PAIR, [(1, 1), (2, 7), (7, 2), (5, 5)]),
    ic.block(ic.COLUMNS, 3),
    ic.block(ic.CORNER, 1),
    ic.block(ic.CORNER, 4),
    ic.compl(ic.block(ic.CORNER, 4)),
    ic.compl(ic.diff(ic.upper_quad(3), ic.union(ic.row(5), ic.col(6)))),
    ic.diff(ic.compl(ic.upper_quad(6)), ic.compl(ic.union(ic.row(2), ic.block(ic.CORNER, 3)))),
    ic.inter(ic.row(4), ic.compl(ic.upper_quad(9))),
    ic.inter(ic.compl(ic.upper_quad(4)), ic.compl(ic.union(ic.row(1), ic.col(1)))),
    # one subterm shared three times, its mask reused from the memo
    ic.inter(
        ic.compl(ic.union(ic.row(2), ic.block(ic.CORNER, 3))),
        ic.union(ic.union(ic.row(2), ic.block(ic.CORNER, 3)), ic.col(5)),
        ic.diff(ic.full(PAIR), ic.union(ic.row(2), ic.block(ic.CORNER, 3))),
    ),
]


def test_each_atom_kind_matches_the_cell_sampler():
    for t in FIXED:
        assert_same_readings(t)


# -- cost: linear in cells, and a budget on the number of cells --


def _run(code: str, mb: int, timeout: float) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter whose address space is capped at
    mb MiB; the cap is set inside that child only."""
    cap = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({mb} << 20, {mb} << 20))\n"
    src = os.path.dirname(os.path.dirname(ic.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", cap + code], capture_output=True, text=True, env=env, timeout=timeout
    )


DIAGONAL = """
import json
import idealconv as ic
out = []
for n in {sizes}:
    d = ic.finite_set(ic.Universe.NATPAIR, [(i, i) for i in range(1, n + 1)])
    try:
        out.append([ic.classify(d).cardinality, ic.classify(ic.compl(d)).kind,
                    ic.in_ideal(ic.pringsheim(), d), ic.in_ideal(ic.pringsheim(), ic.compl(d))])
    except ic.SizeTooLarge as e:
        out.append(["SizeTooLarge", str(e)])
print(json.dumps(out))
"""


def test_diagonal_complement_is_infinite_in_linear_time():
    # about 4 million cells: a loop that shifts the mask once per cell is
    # quadratic and runs far past the timeout
    r = _run(DIAGONAL.format(sizes=[2000]), 512, timeout=5)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == [[2000, "infinite", True, False]]


def test_cell_budget_is_2_to_the_24():
    r = _run(DIAGONAL.format(sizes=[4095, 5000]), 512, timeout=120)
    assert r.returncode == 0, r.stderr
    fits, refused = json.loads(r.stdout)
    assert fits == [4095, "infinite", True, False]
    assert refused[0] == "SizeTooLarge" and len(refused[1]) < 100


def test_cli_exits_2_over_the_cell_budget():
    diagonal = [[i, i] for i in range(1, 5001)]
    term = json.dumps({"atom": "finite", "universe": "natpair", "elements": diagonal})
    code = (
        "import sys\nfrom idealconv import cli\n"
        f"sys.exit(cli.main(['set', 'classify', '--term', {term!r}]))\n"
    )
    r = _run(code, 512, timeout=120)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error:") and len(r.stderr) < 120
