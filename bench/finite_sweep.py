"""finite-sweep: finite models of the kind agreement_sweep(4) covers.

Index sets of 1 to 4 points, codomain topologies of 1 to 3 points.  A
round samples a fixed number of models (space, sequence, target point)
from every (index size, point count) stratum, so every seed asks the
same mix of question kinds.  Each model is encoded with encode_ideal,
encode_space and encode_fn; the few ideal encodings of one index size
are shared by every question of that size.

Questions, per model:
  conv     brute_i_limits and converges, one per ideal
  star     brute_ihj and star_converges, one per ideal pair
  member   in_ideal of the escape set of the smallest open around x
  classify classify of that escape set
and once per index size: subset, known_subset for every ideal pair.

The checker is model.finite_limit / model.finite_star: escape masks
against generator masks.  An UNKNOWN engine verdict is a failed
operation, as in agreement_sweep.
"""

from __future__ import annotations

import random
import time

import model

# (index points, codomain points, models per round); None takes every
# model of the stratum.  The strata of one and two codomain points are
# small and hold the slowest star questions, so asking all of them keeps
# the tail of the distribution the same for every seed.
STRATA = (
    (1, 1, None), (1, 2, None), (1, 3, 24),
    (2, 1, None), (2, 2, None), (2, 3, 48),
    (3, 1, None), (3, 2, None), (3, 3, 64),
    (4, 1, None), (4, 2, None), (4, 3, 96),
)


def sample_models(seed: int):
    """[(s, m, opens, fn, x)], drawn only by the benchmark's own code."""
    rng = random.Random(seed)
    tops = {m: model.topologies(m) for m in (1, 2, 3)}
    out = []
    for s, m, count in STRATA:
        per_top = m ** s * m
        total = len(tops[m]) * per_top
        for idx in range(total) if count is None else sorted(rng.sample(range(total), count)):
            t, rest = divmod(idx, per_top)
            code, x = divmod(rest, m)
            fn = tuple(code // m ** k % m for k in range(s))
            out.append((s, m, tops[m][t], fn, x))
    return out


class Conv:
    __slots__ = ("mdl", "g", "fi", "sp", "fenc", "enc")
    kind = "conv"

    def ask(self, ic):
        _, _, _, fn, x = self.mdl
        brute = x in ic.brute_i_limits(fn, self.fi, self.sp)
        v = ic.converges(self.fenc, self.enc, x)
        return brute, v.value


class Star:
    __slots__ = ("mdl", "gi", "gj", "fi", "fj", "sp", "fenc", "ei", "ej")
    kind = "star"

    def ask(self, ic):
        _, _, _, fn, x = self.mdl
        brute = ic.brute_ihj(fn, self.fi, self.fj, self.sp, x)[0]
        r = ic.star_converges(self.fenc, self.ei, self.ej, x)
        return brute, r.verdict.value


class Member:
    __slots__ = ("mdl", "g", "esc", "term", "enc")
    kind = "member"

    def ask(self, ic):
        return ic.in_ideal(self.enc, self.term)


class Classify:
    __slots__ = ("mdl", "esc", "term")
    kind = "classify"

    def ask(self, ic):
        c = ic.classify(self.term)
        return c.kind, c.cardinality


class Subset:
    __slots__ = ("gi", "gj", "ei", "ej")
    kind = "subset"
    mdl = None

    def ask(self, ic):
        return ic.known_subset(self.ei, self.ej)


def _new(cls, **kw):
    q = cls()
    for k, v in kw.items():
        setattr(q, k, v)
    return q


class Workload:
    name = "finite-sweep"

    def __init__(self, ic, seed, api):
        self.ic = ic
        t0 = time.monotonic_ns()
        self.models = sample_models(seed)
        self.generate_s = (time.monotonic_ns() - t0) / 1e9
        self.questions = self.build(api)

    def build(self, ic):
        """Program inputs from the sampled models, through the program's
        constructors; called again before the warm pass."""
        enc, fis = {}, {}
        for s in sorted({mdl[0] for mdl in self.models}):
            fis[s] = [ic.FiniteIdeal(s, g) for g in range(1 << s)]
            enc[s] = [ic.encode_ideal(fi) for fi in fis[s]]
        qs = []
        for s in sorted(enc):
            for gi in range(1 << s):
                for gj in range(1 << s):
                    qs.append(_new(Subset, gi=gi, gj=gj, ei=enc[s][gi], ej=enc[s][gj]))
        for mdl in self.models:
            s, m, opens, fn, x = mdl
            sp = ic.FiniteSpace(m, opens)
            spe = ic.encode_space(sp)
            fenc = ic.encode_fn(fn, spe, x)
            esc = model.escape_mask(fn, model.min_open(opens, x))
            term = ic.finite_set(ic.Universe.NAT, [k + 1 for k in range(s) if esc >> k & 1])
            qs.append(_new(Classify, mdl=mdl, esc=esc, term=term))
            for g in range(1 << s):
                qs.append(_new(Conv, mdl=mdl, g=g, fi=fis[s][g], sp=sp, fenc=fenc, enc=enc[s][g]))
                qs.append(_new(Member, mdl=mdl, g=g, esc=esc, term=term, enc=enc[s][g]))
            for gi in range(1 << s):
                for gj in range(1 << s):
                    qs.append(_new(Star, mdl=mdl, gi=gi, gj=gj, fi=fis[s][gi], fj=fis[s][gj],
                                   sp=sp, fenc=fenc, ei=enc[s][gi], ej=enc[s][gj]))
        return qs

    def followups(self, q, answer):
        return ()

    def check_groups(self, queue, answers):
        return []

    def failed(self, q, answer) -> bool:
        return q.kind in ("conv", "star") and answer[1] == "unknown"

    def check(self, q, answer):
        """None when the answer is right, else a description."""
        if q.kind == "subset":
            want = q.gi & ~q.gj == 0
            return None if answer is want else f"known_subset gens={q.gi},{q.gj}: {answer}"
        s, m, opens, fn, x = q.mdl
        where = f"s={s} opens={opens} fn={fn} x={x}"
        if q.kind == "classify":
            card = bin(q.esc).count("1")
            want = ("finite" if card else "empty", card)
            return None if tuple(answer) == want else f"classify {where}: {answer} != {want}"
        if q.kind == "member":
            want = q.esc & ~q.g == 0
            return None if answer is want else f"in_ideal {where} gen={q.g}: {answer}"
        if q.kind == "conv":
            want = model.finite_limit(opens, fn, x, q.g)
            where += f" gen={q.g}"
        else:
            want = model.finite_star(opens, fn, x, q.gi, q.gj)
            where += f" gens={q.gi},{q.gj}"
        brute, engine = answer
        if brute is not want:
            return f"{q.kind} brute {where}: {brute} != {want}"
        if engine != "unknown" and engine != ("yes" if want else "no"):
            return f"{q.kind} engine {where}: {engine} != {want}"
        return None

    def wrong_answer(self, queue, answers, usable):
        """One deliberately wrong answer for the checker's self-test, made
        from the first star answer among usable; None if there is none."""
        k = next((k for k in usable if queue[k].kind == "star"), None)
        if k is None:
            return None
        brute, engine = answers[k]
        return k, (brute, "no" if engine == "yes" else "yes")

    def layer_counts(self, queue, answers):
        return {}
