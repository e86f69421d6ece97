"""JSON forms for terms, ideals, functions, and verdicts.

All dumps are canonical: sorted keys, no whitespace variance, so equal
inputs serialize to identical bytes.  The readers (the *_from_obj
functions) raise ValueError on a bad value, and KeyError, TypeError or
AttributeError on a JSON shape they do not expect; the constructors they
call raise their own IdealConvError.  The command line's `_read` turns
every one of these into exit 2.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import terms as T
from .bijections import bijection_by_name
from .convergence import StarResult
from .functions import Const, DiagonalFamily, PiecewiseFn, TailsTo
from .ideals import Ideal
from .partitions import partition_by_id
from .spaces import METRIC_LINE, FiniteTop, MetricLine, finite_top
from .universe import Universe

__all__ = [
    "canonical_dumps",
    "term_to_obj",
    "term_from_obj",
    "ideal_to_obj",
    "ideal_from_obj",
    "value_to_obj",
    "value_from_obj",
    "fn_to_obj",
    "fn_from_obj",
    "space_to_obj",
    "space_from_obj",
    "star_to_obj",
]


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _universe_from(s: str) -> Universe:
    try:
        return Universe(s)
    except ValueError:
        raise ValueError(f"unknown universe {s!r}") from None


def _element_to_obj(u: Universe, e):
    return list(e) if u is Universe.NATPAIR else e


def element_from_obj(u: Universe, o):
    if u is Universe.NATPAIR:
        if not (isinstance(o, list) and len(o) == 2):
            raise ValueError(f"pair element must be a 2-list, got {o!r}")
        return (o[0], o[1])
    if not isinstance(o, int):
        raise ValueError(f"element must be an integer, got {o!r}")
    return o


def term_to_obj(t: T.SetTerm):
    if isinstance(t, T.Empty):
        return {"atom": "empty", "universe": t.universe.value}
    if isinstance(t, T.Full):
        return {"atom": "full", "universe": t.universe.value}
    if isinstance(t, T.FiniteSet):
        elems = sorted(t.elements)
        return {
            "atom": "finite",
            "universe": t.universe.value,
            "elements": [_element_to_obj(t.universe, e) for e in elems],
        }
    if isinstance(t, T.Tail):
        return {"atom": "tail", "start": t.start}
    if isinstance(t, T.UpperQuad):
        return {"atom": "upperquad", "start": t.start}
    if isinstance(t, T.Row):
        return {"atom": "row", "index": t.index}
    if isinstance(t, T.Col):
        return {"atom": "col", "index": t.index}
    if isinstance(t, T.Block):
        return {"atom": "block", "partition": t.partition.pid, "index": t.index}
    if isinstance(t, T.Compl):
        return {"op": "compl", "terms": [term_to_obj(t.term)]}
    if isinstance(t, T.Union):
        return {"op": "union", "terms": [term_to_obj(s) for s in t.terms]}
    if isinstance(t, T.Inter):
        return {"op": "inter", "terms": [term_to_obj(s) for s in t.terms]}
    if isinstance(t, T.Diff):
        return {"op": "diff", "terms": [term_to_obj(t.left), term_to_obj(t.right)]}
    raise ValueError(f"unserializable term {t!r}")


def term_from_obj(o) -> T.SetTerm:
    if not isinstance(o, dict):
        raise ValueError(f"term must be an object, got {o!r}")
    if "atom" in o:
        a = o["atom"]
        if a == "empty":
            return T.empty(_universe_from(o["universe"]))
        if a == "full":
            return T.full(_universe_from(o["universe"]))
        if a == "finite":
            u = _universe_from(o["universe"])
            return T.finite_set(u, [element_from_obj(u, e) for e in o["elements"]])
        if a == "tail":
            return T.tail(o["start"])
        if a == "upperquad":
            return T.upper_quad(o["start"])
        if a == "row":
            return T.row(o["index"])
        if a == "col":
            return T.col(o["index"])
        if a == "block":
            return T.block(partition_by_id(o["partition"]), o["index"])
        raise ValueError(f"unknown atom {a!r}")
    if "op" in o:
        op = o["op"]
        ts = [term_from_obj(s) for s in o.get("terms", [])]
        if op == "compl":
            if len(ts) != 1:
                raise ValueError("compl takes one term")
            return T.compl(ts[0])
        if op == "union":
            if not ts:
                raise ValueError("union takes at least one term")
            return T.union(*ts)
        if op == "inter":
            if not ts:
                raise ValueError("inter takes at least one term")
            return T.inter(*ts)
        if op == "diff":
            if len(ts) != 2:
                raise ValueError("diff takes two terms")
            return T.diff(ts[0], ts[1])
        raise ValueError(f"unknown op {op!r}")
    raise ValueError("term object needs an 'atom' or 'op' key")


def ideal_to_obj(i: Ideal):
    out = {"ideal": i.kind, "universe": i.universe.value}
    if i.set_term is not None:
        out["set"] = term_to_obj(i.set_term)
    if i.partition is not None:
        out["partition"] = i.partition.pid
    if i.base is not None:
        out["base"] = ideal_to_obj(i.base)
    if i.cutoff is not None:
        out["cutoff"] = i.cutoff
    if i.bijection is not None:
        b = i.bijection
        out["bijection"] = b.name + ("_inv" if b.inverted else "")
    return out


def ideal_from_obj(o) -> Ideal:
    from . import ideals as I

    if not isinstance(o, dict) or "ideal" not in o:
        raise ValueError("ideal object needs an 'ideal' key")
    kind = o["ideal"]
    if kind == "fin":
        return I.fin(_universe_from(o.get("universe", "nat")))
    if kind == "improper":
        return I.improper(_universe_from(o.get("universe", "nat")))
    if kind == "principal":
        return I.principal(term_from_obj(o["set"]))
    if kind == "partition":
        return I.partition_ideal(partition_by_id(o["partition"]))
    if kind == "pringsheim":
        return I.pringsheim()
    if kind == "uniform_product":
        return I.uniform_product(ideal_from_obj(o["base"]), o["cutoff"])
    if kind == "pointwise_product":
        return I.pointwise_product(ideal_from_obj(o["base"]), o["cutoff"])
    if kind == "pushforward":
        return I.pushforward(ideal_from_obj(o["base"]), bijection_by_name(o["bijection"]))
    if kind == "trace":
        return I.trace_ideal(ideal_from_obj(o["base"]), term_from_obj(o["set"]))
    raise ValueError(f"unknown ideal kind {kind!r}")


def value_to_obj(v):
    if isinstance(v, bool):
        raise ValueError("boolean is not a codomain value")
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return int(v)
        return {"num": v.numerator, "den": v.denominator}
    if isinstance(v, str):
        return v
    raise ValueError(f"unserializable value {v!r}")


def value_from_obj(o):
    if isinstance(o, bool):
        raise ValueError("boolean is not a codomain value")
    if isinstance(o, int):
        return Fraction(o)
    if isinstance(o, str):
        return o
    if isinstance(o, dict) and set(o) == {"num", "den"}:
        if any(type(v) is not int for v in o.values()) or o["den"] == 0:
            raise ValueError(f"a rational needs integer num and nonzero integer den, got {o!r}")
        return Fraction(o["num"], o["den"])
    raise ValueError(f"unreadable value {o!r}")


def space_to_obj(sp):
    if isinstance(sp, MetricLine):
        return "metric"
    if isinstance(sp, FiniteTop):
        return {
            "points": list(sp.points),
            "opens": sorted(sorted(o) for o in sp.opens),
        }
    raise ValueError(f"unserializable space {sp!r}")


def space_from_obj(o):
    if o == "metric":
        return METRIC_LINE
    if isinstance(o, dict) and "points" in o and "opens" in o:
        return finite_top(o["points"], [frozenset(u) for u in o["opens"]])
    raise ValueError(f"unreadable space {o!r}")


def _rat_to_obj(v) -> dict:
    q = Fraction(v)
    return {"num": q.numerator, "den": q.denominator}


def _spec_to_obj(s):
    if isinstance(s, Const):
        return {"const": value_to_obj(s.value)}
    if isinstance(s, TailsTo):
        out = {"tails_to": _rat_to_obj(s.value)}
        if s.drift != 1:
            out["drift"] = _rat_to_obj(s.drift)
        return out
    raise ValueError(f"unserializable piece spec {s!r}")


def _spec_from_obj(o):
    if isinstance(o, dict) and "const" in o:
        return Const(value_from_obj(o["const"]))
    if isinstance(o, dict) and "tails_to" in o:
        drift = value_from_obj(o["drift"]) if "drift" in o else Fraction(1)
        return TailsTo(value_from_obj(o["tails_to"]), drift)
    raise ValueError(f"unreadable piece spec {o!r}")


def fn_to_obj(f: PiecewiseFn):
    out = {
        "universe": f.universe.value,
        "codomain": space_to_obj(f.codomain),
        "pieces": [
            {"set": term_to_obj(t), "value": _spec_to_obj(s)} for t, s in f.pieces
        ],
    }
    if f.diagonal is not None:
        d = f.diagonal
        out["diagonal"] = {
            "partition": d.partition.pid,
            "target": _rat_to_obj(d.target),
            "scale": _rat_to_obj(d.scale),
        }
    if f.default is not None:
        out["default"] = value_to_obj(f.default)
    return out


def fn_from_obj(o) -> PiecewiseFn:
    """The function the object describes, unvalidated: callers that
    decide it check validate_fn first, as the command line does."""
    if not isinstance(o, dict):
        raise ValueError("function must be an object")
    u = _universe_from(o["universe"])
    sp = space_from_obj(o["codomain"])
    pieces = tuple(
        (term_from_obj(p["set"]), _spec_from_obj(p["value"]))
        for p in o.get("pieces", [])
    )
    diag = None
    if o.get("diagonal") is not None:
        d = o["diagonal"]
        diag = DiagonalFamily(
            partition_by_id(d["partition"]),
            Fraction(value_from_obj(d["target"])),
            Fraction(value_from_obj(d.get("scale", 1))),
        )
    default = value_from_obj(o["default"]) if "default" in o else None
    return PiecewiseFn(u, sp, pieces, diag, default)


def star_to_obj(r: StarResult):
    out = {"verdict": r.verdict.value, "reason": r.reason}
    if r.witness is not None:
        out["witness"] = {"set": term_to_obj(r.witness.m), "note": r.witness.note}
    return out
