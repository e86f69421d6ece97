"""fact-suite: lemma_suite(n) for n = 1..3 and pi_condition_crosscheck(n)
for n = 3, 4.

These are pure brute loops that never call the symbolic engine, so this
workload is the mechanism workload for changes to the finite layer and
the bypass workload (prediction: no change) for changes to the engine.
Its questions are whole oracle calls, five per round, always in the
same order; the seed does not change them.  With five questions of
well-separated cost, the median question is lemma_suite(1) whatever the
number of rounds.

The checker needs no program output beyond the reports:
  * every one of the 12 claims is checked at least once and has zero
    violations;
  * enumerate_topologies(m) has 1, 4, 29, 355 members (OEIS A000798),
    and the benchmark's own enumeration agrees for m <= 3;
  * enumerate_ideals(n) has 2^n members and the crosscheck 4^n pairs;
  * the claims whose instance counts have a closed form match it, among
    them improper-ideal-absorbs-everything = sum over spaces of m^n.
"""

from __future__ import annotations

import model

A000798 = (1, 4, 29, 355)
CLAIMS = (
    "improper-ideal-absorbs-everything",
    "limits-grow-with-the-ideal",
    "hausdorff-limits-unique",
    "continuous-image-of-limits",
    "maximal-ideal-limits-exist",
    "aux-convergence-gives-star",
    "star-monotone-in-both-ideals",
    "star-forces-base-when-aux-refines",
    "gap-function-when-aux-escapes-base",
    "star-matches-trace-restriction",
    "decomposition-recombines",
    "maximal-means-one-point-missing",
)
MAX_POINTS = 3


def expected_counts(n: int) -> dict:
    """Instance counts computed apart from the program.  Over spaces of
    up to three points there are A000798(m) spaces with m^n sequences
    each; the only Hausdorff ones are the discrete spaces."""
    seqs = sum(A000798[m - 1] * m ** n for m in range(1, MAX_POINTS + 1))
    discrete = sum(m ** n for m in range(1, MAX_POINTS + 1))
    return {
        "improper-ideal-absorbs-everything": seqs,
        "limits-grow-with-the-ideal": 3 ** n * seqs,  # nested generator pairs
        "hausdorff-limits-unique": (2 ** n - 1) * discrete,  # proper ideals
        "maximal-means-one-point-missing": 2 ** n,
    }


class Lemma:
    kind = "lemma"

    def __init__(self, n):
        self.n = n

    def ask(self, ic):
        rep = ic.lemma_suite(self.n)
        return rep.size, tuple((c.name, c.checked, len(c.violations)) for c in rep.claims)


class Cross:
    kind = "crosscheck"

    def __init__(self, n):
        self.n = n

    def ask(self, ic):
        rep = ic.pi_condition_crosscheck(self.n)
        return rep.size, rep.pairs, len(rep.disagreements)


class Workload:
    name = "fact-suite"

    def __init__(self, ic, seed, api):
        self.ic = ic
        self.generate_s = 0.0
        self.questions = self.build(api)
        self.counts_checked = False

    def build(self, ic):
        return [Cross(n) for n in (3, 4)] + [Lemma(n) for n in (1, 2, 3)]

    def followups(self, q, answer):
        return ()

    def check_groups(self, queue, answers):
        return []

    def failed(self, q, answer) -> bool:
        return False

    def check(self, q, answer):
        if not self.counts_checked:
            self.counts_checked = True
            err = self.check_counts()
            if err:
                return err
        if q.kind == "crosscheck":
            size, pairs, bad = answer
            if (size, pairs, bad) != (q.n, 4 ** q.n, 0):
                return f"pi_condition_crosscheck({q.n}): size={size} pairs={pairs} disagreements={bad}"
            return None
        size, claims = answer
        if size != q.n or tuple(c[0] for c in claims) != CLAIMS:
            return f"lemma_suite({q.n}): size {size}, claims {[c[0] for c in claims]}"
        want = expected_counts(q.n)
        for name, checked, bad in claims:
            if bad or checked < 1:
                return f"lemma_suite({q.n}) {name}: checked={checked} violations={bad}"
            if name in want and checked != want[name]:
                return f"lemma_suite({q.n}) {name}: checked={checked}, expected {want[name]}"
        return None

    def check_counts(self):
        ic = self.ic
        for m in (1, 2, 3, 4):
            got = len(ic.enumerate_topologies(m))
            if got != A000798[m - 1] or (m <= MAX_POINTS and len(model.topologies(m)) != got):
                return f"enumerate_topologies({m}) has {got} members"
        for n in (1, 2, 3, 4):
            got = len(ic.enumerate_ideals(n))
            if got != 2 ** n:
                return f"enumerate_ideals({n}) has {got} members"
        return None

    def wrong_answer(self, queue, answers, usable):
        k = next((k for k in usable if queue[k].kind == "lemma"), None)
        if k is None:
            return None
        size, claims = answers[k]
        (name, checked, bad), rest = claims[0], claims[1:]
        return k, (size, ((name, checked + 1, bad),) + rest)

    def layer_counts(self, queue, answers):
        checks = 0
        for q, a in zip(queue, answers):
            if q.kind == "lemma":
                checks += sum(c[1] for c in a[1])
            elif q.kind == "crosscheck":
                checks += a[1]
        return {"finite.checks": checks}
