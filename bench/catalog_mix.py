"""catalog-mix: seeded questions over the catalog ideals on both universes.

Every input is a JSON object of the kind the CLI reads; each question
parses it with idealconv.serialize, asks the program, and renders the
answer back through serialize.  Inputs rarely repeat.

Constant ranges (README lists them with their measured costs):
  * additive constants -- tail starts, finite elements, row, column and
    quadrant indices away from RULER_CORNER -- are log-uniform over
    [1, 10^4); column and corner diagonal scales over [1, 10^3);
  * constants that become exponents stay small: ruler block indices,
    ruler diagonal scales and indices under RULER_CORNER are 1..12.
Only combinations the engine's contract decides are asked: TailsTo
pieces meet only admissible ideals, and every atom under a bijection has
a preimage rule.  UNKNOWN is an honest answer here, not a failure.

Checks, all against model.py or against other answers of the round:
  classify / normal form / member   the benchmark's own interpreter
  in_ideal     model.in_ideal where it has a rule, and the ideal axioms
               (heredity, finite unions) across each group of questions
  preimage     membership of b(n) in t against membership of n
  converges    model.in_ideal of the escape set for Const/TailsTo
               functions; x in limits iff converges says yes
  limits       at most one along a proper ideal
  known_subset convergence is monotone along it
  star         aux convergence gives YES; AP HOLDS with base YES never
               gives NO; every YES witness passes verify_witness
  decompose    f = g + h pointwise and h = 0 on the witness region
  ap           every FAILS certifies on truncation
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import model

RULER_MAX = 12
RC_MAX = 12
MAG_DIGITS = 4
SCALE_DIGITS = 3
PREIMAGE_TAIL_DIGITS = 3

NAT, PAIR = "nat", "natpair"
FIN_NAT = {"ideal": "fin", "universe": NAT}
RULER_IDEAL = {"ideal": "partition", "universe": NAT, "partition": "ruler"}


class Gen:
    """Seeded generator of JSON inputs; uses no program code.

    Two streams: `rng` draws the shape of the questions (term trees, atom
    and ideal kinds, function shapes, and which eighth of its range each
    constant falls in) from the input set's index, so that every seed asks
    the same mix at the same cost; `vrng` draws everything else -- the
    constants within their eighth, values, residues, cut-offs -- from the
    seed, so that inputs differ between seeds and rarely repeat."""

    def __init__(self, shape_seed, value_seed):
        self.rng = random.Random(shape_seed)
        self.vrng = random.Random(value_seed)
        self._strata = {}

    def stratified(self, key, lo, hi, bins):
        """Uniform over [lo, hi), but every run of `bins` draws under one
        key takes one value from each bin of the range."""
        pool = self._strata.get(key)
        if not pool:
            pool = self._strata[key] = self.rng.sample(range(bins), bins)
        return lo + (hi - lo) * (pool.pop() + self.vrng.random()) / bins

    def mag(self, digits=MAG_DIGITS):
        """Log-uniform over [1, 10^digits), in bins of an eighth of a decade."""
        return int(10 ** self.stratified(("mag", digits), 0, digits, 8 * digits))

    def ruler_index(self, top=RULER_MAX):
        """Uniform over 1..top; as it becomes an exponent, it is part of
        the shape."""
        return int(self.stratified(("ruler", top), 1, top + 1, top))

    def value(self):
        return fraction_obj(Fraction(self.vrng.randint(-4, 4), self.vrng.choice((1, 2, 3))))

    # -- terms

    def nat_atom(self, tail_digits=MAG_DIGITS):
        r = self.rng.random()
        if r < 0.3:
            return {"atom": "tail", "start": self.mag(tail_digits)}
        if r < 0.5:
            k = self.rng.randint(1, 4)
            return {"atom": "finite", "universe": NAT,
                    "elements": sorted({self.mag(tail_digits) for _ in range(k)})}
        if r < 0.75:
            return {"atom": "block", "partition": "ruler", "index": self.ruler_index()}
        if r < 0.95:
            m = self.rng.randint(2, 4)
            return {"atom": "block", "partition": f"residues:{m}", "index": self.vrng.randint(1, m)}
        return {"atom": self.vrng.choice(("empty", "full")), "universe": NAT}

    def pair_atom(self, rc=False):
        idx = (lambda: self.ruler_index(RC_MAX)) if rc else self.mag
        r = self.rng.random()
        if r < 0.18:
            return {"atom": "row", "index": idx()}
        if r < 0.36:
            return {"atom": "col", "index": idx()}
        if r < 0.52:
            return {"atom": "upperquad", "start": idx()}
        if r < 0.68:
            k = self.rng.randint(1, 3)
            return {"atom": "finite", "universe": PAIR,
                    "elements": sorted({(idx(), idx()) for _ in range(k)})}
        if r < 0.95:
            pid = self.vrng.choice(("columns", "corner"))
            return {"atom": "block", "partition": pid, "index": idx()}
        return {"atom": self.vrng.choice(("empty", "full")), "universe": PAIR}

    def term(self, u, depth=3, **kw):
        if depth == 0 or self.rng.random() < 0.3:
            t = self.nat_atom(**kw) if u == NAT else self.pair_atom(**kw)
            if t["atom"] == "finite" and u == PAIR:
                t["elements"] = [list(e) for e in t["elements"]]
            return t
        op = self.rng.choice(("compl", "union", "inter", "diff"))
        n = {"compl": 1, "diff": 2}.get(op, self.rng.randint(2, 3))
        return model.op(op, *(self.term(u, depth - 1, **kw) for _ in range(n)))

    def probes(self, t, u):
        """Elements worth asking about: small ones and ones beside every
        constant of the term."""
        consts = set()

        def walk(s):
            if "op" in s:
                for x in s["terms"]:
                    walk(x)
                return
            for key in ("start", "index"):
                if key in s:
                    consts.add(s[key])
            for e in s.get("elements", ()):
                consts.update(e if isinstance(e, list) else (e,))

        walk(t)
        near = sorted({c + d for c in consts for d in (-1, 0, 1) if c + d >= 1})
        if u == NAT:
            return sorted(set(range(1, 33)) | set(near) | {1 << k for k in range(RULER_MAX + 2)})
        near = near[:12]
        pts = {(a, b) for a in range(1, 5) for b in range(1, 5)}
        pts |= {(a, b) for a in near for b in near[:4]} | {(a, 1) for a in near} | {(1, b) for b in near}
        return [list(p) for p in sorted(pts)]

    # -- ideals

    def ideal(self, u, admissible=False, rc=False):
        """A catalog ideal on universe u.  rc: the question's terms keep
        RULER_CORNER-sized indices, so pushforwards are allowed."""
        r = self.rng
        if u == NAT:
            kinds = ["fin", "improper", "ruler", "trace-fin", "trace-ruler"]
            if not admissible:
                kinds.append("principal")
        else:
            kinds = ["fin", "improper", "columns", "corner", "pringsheim", "uniform",
                     "pointwise", "trace-fin", "trace-columns"]
            if not admissible:
                kinds.append("principal")
            if rc:
                kinds += ["push-ruler", "push-fin"]
        k = r.choice(kinds)
        if k in ("fin", "improper"):
            return {"ideal": k, "universe": u}
        if k == "principal":
            return {"ideal": "principal", "universe": u, "set": self.term(u, 2, **self._kw(u, rc))}
        if k == "ruler":
            return dict(RULER_IDEAL)
        if k in ("columns", "corner"):
            return {"ideal": "partition", "universe": PAIR, "partition": k}
        if k == "pringsheim":
            return {"ideal": "pringsheim", "universe": PAIR}
        if k in ("uniform", "pointwise"):
            return {"ideal": f"{k}_product", "universe": PAIR, "base": dict(FIN_NAT),
                    "cutoff": self.vrng.randint(1, 20)}
        if k.startswith("trace"):
            base = {"fin": {"ideal": "fin", "universe": u}, "ruler": dict(RULER_IDEAL),
                    "columns": {"ideal": "partition", "universe": PAIR, "partition": "columns"}
                    }[k.split("-")[1]]
            return {"ideal": "trace", "universe": u, "base": base,
                    "set": self.term(u, 2, **self._kw(u, rc))}
        base = dict(RULER_IDEAL) if k == "push-ruler" else dict(FIN_NAT)
        return {"ideal": "pushforward", "universe": PAIR, "base": base, "bijection": "ruler_corner"}

    @staticmethod
    def _kw(u, rc):
        return {"rc": rc} if u == PAIR else {}

    # -- metric-line functions

    def function(self, u, rc=False):
        r = self.rng
        kw = self._kw(u, rc)
        shape = r.choice(("two", "three", "tails", "diagonal"))
        if shape == "diagonal":
            if u == NAT:
                pid, scale = "ruler", self.ruler_index()
            else:
                pid = self.vrng.choice(("columns", "corner"))
                scale = self.ruler_index(RC_MAX) if rc else self.mag(SCALE_DIGITS)
            target = self.value()
            f = {"universe": u, "codomain": "metric", "pieces": [],
                 "diagonal": {"partition": pid, "target": target, "scale": scale}}
            if r.random() < 0.5:
                fin = self.nat_atom() if u == NAT else self.pair_atom(**kw)
                while fin["atom"] != "finite":
                    fin = self.nat_atom() if u == NAT else self.pair_atom(**kw)
                if u == PAIR:
                    fin["elements"] = [list(e) for e in fin["elements"]]
                # block scale/(v - target) is asked for by name, so v keeps
                # an integer distance from the target
                v = model.value(target) + self.vrng.choice((-2, -1, 1, 2))
                f["pieces"] = [{"set": fin, "value": {"const": fraction_obj(v)}}]
            return f
        a = self.term(u, 2, **kw)
        if shape == "three":
            b = self.term(u, 2, **kw)
            sets = [model.op("inter", a, b), model.op("diff", a, b), model.op("compl", a)]
            specs = [{"const": self.value()} for _ in sets]
        else:
            sets = [a, model.op("compl", a)]
            specs = [{"const": self.value()}, {"const": self.value()}]
            if shape == "tails":
                specs[0] = {"tails_to": self.value()}
                if r.random() < 0.5:
                    specs[0]["drift"] = {"num": self.vrng.randint(1, 3), "den": self.vrng.randint(1, 3)}
        return {"universe": u, "codomain": "metric",
                "pieces": [{"set": s, "value": v} for s, v in zip(sets, specs)]}


def declared_values(f):
    out = []
    for p in f["pieces"]:
        spec = p["value"]
        out.append(model.value(spec.get("const", spec.get("tails_to"))))
    if f.get("diagonal"):
        out.append(model.value(f["diagonal"]["target"]))
    return sorted(set(out))


def fraction_obj(v: Fraction):
    return v.numerator if v.denominator == 1 else {"num": v.numerator, "den": v.denominator}


# --- questions ---------------------------------------------------------
#
# Each question holds its JSON input in .req and answers with JSON text
# rendered through serialize.  ask() receives the package, or in a
# traced round its tracing.TracedAPI stand-in.


class Q:
    __slots__ = ("kind", "req", "group")

    def __init__(self, kind, req, group=None):
        self.kind, self.req, self.group = kind, req, group

    def ask(self, ic):
        return ASK[self.kind](ic, ic.serialize, self.req)


def ask_classify(ic, S, req):
    t = S.term_from_obj(req["term"])
    c = ic.classify(t)
    elems = None if c.elements is None else [list(e) if isinstance(e, tuple) else e for e in c.elements]
    return S.canonical_dumps({"kind": c.kind, "cardinality": c.cardinality, "elements": elems})


def ask_normal_form(ic, S, req):
    t = S.term_from_obj(req["term"])
    if req["universe"] == NAT:
        v = ic.nat_value(t)
        probes = req["probes"]
    else:
        v = ic.pair_grid(t)
        probes = [tuple(p) for p in req["probes"]]
    return S.canonical_dumps({"finite": v.is_finite(), "members": [p for p in probes if v.contains(p)]})


def ask_member(ic, S, req):
    t = S.term_from_obj(req["term"])
    e = req["element"]
    e = tuple(e) if isinstance(e, list) else e
    return S.canonical_dumps({"member": ic.member(t, e)})


def ask_in_ideal(ic, S, req):
    i = S.ideal_from_obj(req["ideal"])
    t = S.term_from_obj(req["term"])
    return S.canonical_dumps({"in_ideal": ic.in_ideal(i, t)})


def ask_preimage(ic, S, req):
    b = ic.bijection_by_name(req["bijection"])
    t = S.term_from_obj(req["term"])
    pre = ic.preimage_term(b, t)
    return S.canonical_dumps(S.term_to_obj(pre))


def ask_known_subset(ic, S, req):
    a = S.ideal_from_obj(req["a"])
    b = S.ideal_from_obj(req["b"])
    return S.canonical_dumps({"known_subset": ic.known_subset(a, b)})


def _fn_ideal_point(S, req, key="ideal"):
    f = S.fn_from_obj(req["function"])
    i = S.ideal_from_obj(req[key])
    x = S.value_from_obj(req["point"]) if "point" in req else None
    return f, i, x


def ask_converges(ic, S, req):
    f, i, x = _fn_ideal_point(S, req)
    v = ic.converges(f, i, x)
    return S.canonical_dumps({"verdict": v.value})


def ask_limits(ic, S, req):
    f, i, _ = _fn_ideal_point(S, req)
    lims = ic.limits(f, i)
    return S.canonical_dumps({"limits": [S.value_to_obj(v) for v in lims]})


def ask_star(ic, S, req):
    f, i, x = _fn_ideal_point(S, req)
    j = S.ideal_from_obj(req["aux"])
    r = ic.star_converges(f, i, j, x)
    return S.canonical_dumps(S.star_to_obj(r))


def ask_verify(ic, S, req):
    f, i, x = _fn_ideal_point(S, req)
    j = S.ideal_from_obj(req["aux"])
    m = S.term_from_obj(req["witness"]["set"])
    w = ic.Witness(m, req["witness"]["note"])
    return S.canonical_dumps({"verified": ic.verify_witness(f, i, j, x, w)})


def ask_decompose(ic, S, req):
    f, i, x = _fn_ideal_point(S, req)
    j = S.ideal_from_obj(req["aux"])
    g, h, w = ic.decompose(f, i, j, x)
    return S.canonical_dumps({
        "g": S.fn_to_obj(g),
        "h": S.fn_to_obj(h),
        "witness": S.term_to_obj(w.m),
    })


def ask_ap(ic, S, req):
    i = S.ideal_from_obj(req["ideal"])
    j = S.ideal_from_obj(req["aux"])
    v = ic.additive_property(i, j)
    out = {"status": v.status.value, "rule": v.rule}
    if v.witness is not None:
        out["witness_partition"] = v.witness.partition.pid
    return S.canonical_dumps(out)


def ask_certify(ic, S, req):
    w = ic.BlockFamilyWitness(ic.partition_by_id(req["partition"]))
    samples = [S.term_from_obj(s) for s in req["samples"]]
    rep = ic.certify_failure_on_truncation(w, samples, req["bound"])
    return S.canonical_dumps({"certified": rep.certified, "rows": len(rep.rows)})


ASK = {
    "classify": ask_classify,
    "normal_form": ask_normal_form,
    "member": ask_member,
    "in_ideal": ask_in_ideal,
    "preimage": ask_preimage,
    "known_subset": ask_known_subset,
    "converges": ask_converges,
    "limits": ask_limits,
    "star": ask_star,
    "verify": ask_verify,
    "decompose": ask_decompose,
    "ap": ask_ap,
    "certify": ask_certify,
}

# Questions per round, by family.
TERMS_PER_ROUND = 200  # each: classify, normal form, member on NAT and NATPAIR
IDEAL_GROUPS_PER_ROUND = 120  # each: five in_ideal questions
PREIMAGES_PER_ROUND = 120
FUNCTIONS_PER_ROUND = 100  # each: a base and an aux ideal, up to three targets


class Workload:
    name = "catalog-mix"

    def __init__(self, ic, seed, api):
        self.ic = ic
        t0 = time.monotonic_ns()
        self.requests = self.generate(seed)
        self.generate_s = (time.monotonic_ns() - t0) / 1e9
        self.questions = self.build(api)

    def build(self, ic):
        # inputs stay JSON; the questions parse them, as the CLI does
        return [Q(kind, req, group) for kind, req, group in self.requests]

    def generate(self, seed):
        gen = Gen(seed % 1000, seed)  # run.py numbers input sets seed * 1000 + k
        r = gen.rng
        out = []
        for n in range(TERMS_PER_ROUND):
            for u in (NAT, PAIR):
                t = gen.term(u, 2)
                out.append(("classify", {"term": t}, None))
                t = gen.term(u, 2)
                out.append(("normal_form", {"term": t, "universe": u, "probes": gen.probes(t, u)}, None))
                t = gen.term(u, 2)
                probes = gen.probes(t, u)
                out.append(("member", {"term": t, "element": probes[gen.vrng.randrange(len(probes))]}, None))
        for g in range(IDEAL_GROUPS_PER_ROUND):
            u = r.choice((NAT, PAIR))
            rc = u == PAIR and r.random() < 0.4
            i = gen.ideal(u, rc=rc)
            kw = gen._kw(u, rc)
            a, b = gen.term(u, 2, **kw), gen.term(u, 1, **kw)
            for t in (a, b, model.op("inter", a, b), model.op("union", a, b), model.op("diff", a, b)):
                out.append(("in_ideal", {"ideal": i, "term": t}, ("ideal", g)))
        for _ in range(PREIMAGES_PER_ROUND):
            out.append(("preimage", self.preimage_request(gen), None))
        for g in range(FUNCTIONS_PER_ROUND):
            out.extend(self.function_requests(gen, g))
        return out

    @staticmethod
    def preimage_request(gen):
        r = gen.rng
        b = r.choice(("ruler_corner", "ruler_corner", "ruler_corner_inv", "pairing_inv"))
        if b == "ruler_corner":
            t = gen.term(PAIR, 2, rc=True)
        elif b == "pairing_inv":
            t = {"atom": "tail", "start": gen.mag(PREIMAGE_TAIL_DIGITS)}
            if r.random() < 0.5:
                t = model.op("compl", t)
        else:
            # atoms with a ruler_corner^-1 rule: tails, ruler blocks, and
            # classes 0 and 2^(a-1) modulo 2^a
            def atom():
                k = r.random()
                if k < 0.3:
                    return {"atom": "tail", "start": gen.mag(PREIMAGE_TAIL_DIGITS)}
                if k < 0.7:
                    return {"atom": "block", "partition": "ruler", "index": gen.ruler_index(RC_MAX)}
                a = gen.ruler_index(RC_MAX)
                m = 1 << a
                return {"atom": "block", "partition": f"residues:{m}",
                        "index": gen.vrng.choice((m, m >> 1)) if a > 1 else m}

            t = atom()
            if r.random() < 0.6:
                t = model.op(r.choice(("union", "inter", "diff")), t, atom())
        return {"bijection": b, "term": t}

    @staticmethod
    def function_requests(gen, g):
        r = gen.rng
        u = r.choice((NAT, PAIR))
        rc = u == PAIR and r.random() < 0.3
        f = gen.function(u, rc)
        tails = any("tails_to" in p["value"] for p in f["pieces"])
        i = gen.ideal(u, admissible=tails, rc=rc)
        j = gen.ideal(u, admissible=tails, rc=rc)
        grp = ("fn", g)
        vals = declared_values(f)
        if f.get("diagonal"):
            # away from the target the engine builds block scale/(x - target)
            tgt = model.value(f["diagonal"]["target"])
            away = tgt + 1 if tgt + 1 not in vals else tgt + 3
        else:
            away = max(vals) + Fraction(1, 7)
        targets = sorted(set(gen.vrng.sample(vals, min(2, len(vals))) + [away]))
        base = {"function": f, "ideal": i}
        out = [
            ("limits", base, grp),
            ("known_subset", {"a": i, "b": j}, grp),
            ("known_subset", {"a": j, "b": i}, grp),
            ("ap", {"ideal": i, "aux": j}, grp),
        ]
        for x in targets:
            xo = fraction_obj(x)
            out.append(("converges", dict(base, point=xo), grp))
            out.append(("converges", {"function": f, "ideal": j, "point": xo}, grp))
            out.append(("star", dict(base, aux=j, point=xo), grp))
        return out

    def followups(self, q, answer):
        """A YES without a witness, or a FAILS without a family, gets no
        follow-up; check_star and check_ap report it."""
        if q.kind == "star":
            a = json.loads(answer)
            if a["verdict"] == "yes" and "witness" in a:
                req = dict(q.req, witness=a["witness"])
                return [Q("verify", req, q.group), Q("decompose", req, q.group)]
        if q.kind == "ap":
            a = json.loads(answer)
            if a["status"] == "fails" and "witness_partition" in a:
                return [Q("certify", certify_request(a["witness_partition"]), q.group)]
        return ()

    def failed(self, q, answer) -> bool:
        return False

    # -- checking

    def check(self, q, answer):
        """None when the answer is right, else a description.  Checks that
        relate several answers run on the question that closes a group."""
        if isinstance(answer, tuple):
            return f"{q.kind}: {answer}"
        a = json.loads(answer)
        fn = getattr(self, "check_" + q.kind)
        msg = fn(q.req, a)
        if msg:
            return f"{q.kind} {json.dumps(q.req)[:200]}: {msg}"
        return None

    def check_classify(self, req, a):
        kind, card, elems = model.summary(req["term"])
        if elems is not None and model.is_pair_term(req["term"]):
            elems = [list(e) for e in elems]
        got = (a["kind"], a["cardinality"], a["elements"])
        want = (kind, card, None if elems is None else list(elems))
        return None if got == want else f"{got} != {want}"[:300]

    def check_normal_form(self, req, a):
        t = req["term"]
        want_fin = model.summary(t)[0] != "infinite"
        want = [p for p in req["probes"] if model.member(t, tuple(p) if isinstance(p, list) else p)]
        if a["finite"] != want_fin:
            return f"finite={a['finite']}"
        return None if a["members"] == want else "probe memberships differ"

    def check_member(self, req, a):
        e = req["element"]
        want = model.member(req["term"], tuple(e) if isinstance(e, list) else e)
        return None if a["member"] is want else f"member={a['member']}"

    def check_in_ideal(self, req, a):
        want = model.in_ideal(req["ideal"], req["term"])
        if want is not None and a["in_ideal"] is not want:
            return f"in_ideal={a['in_ideal']}, expected {want}"
        return None

    def check_preimage(self, req, a):
        b, t = req["bijection"], req["term"]
        src_pair = b == "pairing_inv" or b == "ruler_corner_inv"
        if src_pair:
            pts = [(x, y) for x in range(1, 25) for y in range(1, 25)]
        else:
            # the first members of every ruler block, which ruler_corner
            # sends to the corner point and the start of both arms
            pts = sorted(set(range(1, 100)) | {(2 * k - 1) << (i - 1)
                                               for i in range(1, RC_MAX + 3) for k in range(1, 13)})
        for p in pts:
            if model.member(a, p) != model.member(t, model.bijection_apply(b, p)):
                return f"disagrees at {p}"
        return None

    def check_known_subset(self, req, a):
        return None  # checked through convergence monotonicity

    def check_converges(self, req, a):
        if a["verdict"] == "unknown":
            return None
        f, i, x = req["function"], req["ideal"], model.value(req["point"])
        want = own_converges(f, i, x)
        if want is not None and a["verdict"] != ("yes" if want else "no"):
            return f"verdict {a['verdict']}, escape set says {want}"
        return None

    def check_limits(self, req, a):
        if model.proper(req["ideal"]) and len(a["limits"]) > 1:
            return f"{len(a['limits'])} limits along a proper ideal"
        return None

    def check_star(self, req, a):
        if a["verdict"] == "yes" and "witness" not in a:
            return "YES without a witness"
        return None

    def check_verify(self, req, a):
        return None if a["verified"] is True else "witness fails verify_witness"

    def check_decompose(self, req, a):
        f, g, h, w = req["function"], a["g"], a["h"], a["witness"]
        pts = (list(range(1, 40)) if f["universe"] == NAT
               else [(x, y) for x in range(1, 8) for y in range(1, 8)])
        for p in pts:
            fv, gv, hv = model.fn_value(f, p), model.fn_value(g, p), model.fn_value(h, p)
            if fv != gv + hv:
                return f"f != g + h at {p}"
            if model.member(w, p) and hv != 0:
                return f"h != 0 on the witness region at {p}"
        return None

    def check_ap(self, req, a):
        if a["status"] == "fails" and "witness_partition" not in a:
            return "FAILS without a witness family"
        return None

    def check_certify(self, req, a):
        return None if a["certified"] is True else "AP FAILS witness does not certify"

    def check_groups(self, queue, answers):
        """Relations between the answers of one group."""
        groups = {}
        for q, a in zip(queue, answers):
            if q.group is not None and not isinstance(a, tuple):
                groups.setdefault(q.group, []).append((q, json.loads(a)))
        problems = []
        for key, items in groups.items():
            check = check_ideal_group if key[0] == "ideal" else check_function_group
            msg = check(items)
            if msg:
                problems.append(f"group {key}: {msg}")
        return problems

    def wrong_answer(self, queue, answers, usable):
        k = next((k for k in usable if queue[k].kind == "classify"), None)
        if k is None:
            return None
        a = json.loads(answers[k])
        a["kind"] = "finite" if a["kind"] == "infinite" else "infinite"
        return k, json.dumps(a)

    def layer_counts(self, queue, answers):
        out = {"convergence.star_yes": 0, "convergence.star_no": 0, "convergence.star_unknown": 0}
        for q, a in zip(queue, answers):
            if q.kind == "star" and not isinstance(a, tuple):
                out["convergence.star_" + json.loads(a)["verdict"]] += 1
        return out


def own_converges(f, i, x):
    """Convergence of a Const/TailsTo function from its escape set: once
    the ball is small, the points escaping it are those of the pieces
    whose (limit) value is not x, up to finitely many points that an
    admissible ideal absorbs.  None for diagonal families, and where
    model.in_ideal has no rule."""
    if f.get("diagonal"):
        return None
    tails = any("tails_to" in p["value"] for p in f["pieces"])
    if tails and i["ideal"] == "principal":
        return None
    esc = [p["set"] for p in f["pieces"]
           if model.value(p["value"].get("const", p["value"].get("tails_to"))) != x]
    t = model.op("union", *esc) if esc else {"atom": "empty", "universe": f["universe"]}
    return model.in_ideal(i, t)


def check_ideal_group(items):
    if len(items) != 5:
        return None  # a question raised; it is counted as failed
    a, b, ab, aub, adb = (it[1]["in_ideal"] for it in items)
    if a and not (ab and adb):
        return "heredity: A is in, a subset of A is not"
    if b and not ab:
        return "heredity: B is in, A and B is not"
    if aub and not (a and b):
        return "heredity: A or B is in, a part is not"
    if a and b and not aub:
        return "A and B are in, their union is not"
    return None


def check_function_group(items):
    conv, subset = {}, {}
    limits, declared, base, ap, aux = set(), set(), None, None, None
    for q, a in items:
        if q.kind == "converges":
            conv[(json.dumps(q.req["ideal"], sort_keys=True), model.value(q.req["point"]))] = a["verdict"]
        elif q.kind == "limits":
            limits = {model.value(v) for v in a["limits"]}
            base = json.dumps(q.req["ideal"], sort_keys=True)
            declared = set(declared_values(q.req["function"]))
        elif q.kind == "known_subset":
            subset[(json.dumps(q.req["a"], sort_keys=True), json.dumps(q.req["b"], sort_keys=True))] = \
                a["known_subset"]
        elif q.kind == "ap":
            ap = a["status"]
            aux = json.dumps(q.req["aux"], sort_keys=True)
    for (ideal, x), v in conv.items():
        # limits() lists declared values only, so only they are compared
        if ideal == base and x in declared and (v == "yes") != (x in limits):
            return f"converges({x}) says {v}, limits are {sorted(limits)}"
    for (ia, ib), known in subset.items():
        if not known:
            continue
        for (ideal, x), v in conv.items():
            if ideal == ia and v == "yes" and conv.get((ib, x)) == "no":
                return f"converges along a smaller ideal, not along a known superset, x={x}"
    for q, a in items:
        if q.kind != "star":
            continue
        x = model.value(q.req["point"])
        if conv.get((aux, x)) == "yes" and a["verdict"] != "yes":
            return f"aux-convergent at {x} but star says {a['verdict']}"
        if ap == "holds" and conv.get((base, x)) == "yes" and a["verdict"] == "no":
            return f"AP holds and base converges at {x} but star says no"
    return None


def certify_request(pid):
    """Members of the partition ideal to certify the AP failure on:
    finite unions of leading blocks, plus a finite set."""
    if pid == "ruler":
        blocks = [{"atom": "block", "partition": "ruler", "index": k} for k in (1, 2, 3)]
        fin = {"atom": "finite", "universe": NAT, "elements": [5, 12, 40]}
        bound = 64
    else:
        blocks = [{"atom": "block", "partition": pid, "index": k} for k in (1, 2, 3)]
        fin = {"atom": "finite", "universe": PAIR, "elements": [[2, 9], [7, 7]]}
        bound = 12
    samples = [blocks[0], model.op("union", *blocks), fin, model.op("union", blocks[1], fin)]
    return {"partition": pid, "samples": samples, "bound": bound}
