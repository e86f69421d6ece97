"""Command-line front end.

Subcommands: ideal info, set classify, set member, conv decide,
conv witness, ap, oracle run.  Inputs are the module-level JSON formats,
inline or from a fixture file; outputs are byte-deterministic in both
text and JSON modes.

Outside input has one door: `_input` looks a value up in its flag, then
in the fixture file, and `_read` is the only place a JSON value becomes a
term, ideal, function, point, element, partition or universe, so
malformed input of any shape exits 2 with one `error:` line.

Exit codes: 0 decided/success, 1 oracle violation, 2 input error,
3 undecided under --strict.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from fractions import Fraction

from . import errors as E
from . import serialize as S
from . import terms as T
from .additivity import ApStatus, additive_property, pi_condition_crosscheck
from .convergence import Verdict, converges, star_converges
from .finite import agreement_sweep, crosscheck, lemma_suite
from .functions import validate_fn
from .ideals import (
    Ideal,
    admissible,
    fin,
    has_maximum,
    improper,
    in_ideal,
    maximum_term,
    partition_ideal,
    principal,
    pringsheim,
    proper,
)
from .partitions import COLUMNS, RULER, partition_by_id
from .sampling import random_term
from .universe import Universe

__all__ = ["main"]

_ALIAS_HELP = (
    "fin[:nat|natpair], uni, prg, mac[:partition], improper[:nat|natpair], "
    "principal:<term json>, or a full ideal JSON object"
)


class _Exit(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _fail(message: str):
    raise _Exit(2, message)


_JSON_DEPTH = 400  # two levels a term operator; the engine recurses out near 330 operators


def _check_depth(text: str, what: str):
    """Exit 2 on JSON nested past _JSON_DEPTH, before a parser recurses."""
    depth = top = 0
    # An unclosed string runs to the end, so the scan stays linear.
    for c in re.sub(r'"(?:[^"\\]|\\.)*"?|[^[\]{}"]+', "", text, flags=re.S):
        depth += 1 if c in "[{" else -1
        top = max(top, depth)
    if top > _JSON_DEPTH:
        _fail(f"{what} nests {top} levels deep (limit {_JSON_DEPTH})")


def _load_json(s: str):
    _check_depth(s, "JSON")
    try:
        return json.loads(s)
    except json.JSONDecodeError as e:
        _fail(f"bad JSON: {e}")


def _read(what: str, reader, obj):
    """The one place a JSON value becomes a term, ideal, function, point,
    element, partition or universe.  A reader's ValueError, or the KeyError,
    TypeError or AttributeError of a JSON shape it does not expect, exits
    2; only reading is wrapped, so an engine fault still shows."""
    try:
        return reader(obj)
    except KeyError as e:
        _fail(f"bad {what}: missing key {e}")
    except (ValueError, TypeError, AttributeError) as e:
        _fail(f"bad {what}: {e}")


def parse_ideal(spec: str, default: Universe = Universe.NAT) -> Ideal:
    """Catalog alias or inline ideal JSON.

    Bare fin/improper land on the default universe so a pair like
    --I uni --J fin reads both ideals over the same index set."""
    spec = spec.strip()
    if spec.startswith("{"):
        return _read("ideal", S.ideal_from_obj, _load_json(spec))
    name, _, arg = spec.partition(":")
    if name == "fin":
        return fin(_read("universe", Universe, arg) if arg else default)
    if name == "improper":
        return improper(_read("universe", Universe, arg) if arg else default)
    if name == "uni":
        return partition_ideal(COLUMNS)
    if name in ("prg", "pringsheim"):
        return pringsheim()
    if name == "mac":
        return partition_ideal(_read("partition", partition_by_id, arg) if arg else RULER)
    if name == "principal":
        if not arg:
            _fail("principal needs a generator term: principal:<term json>")
        return principal(_parse_term(arg))
    _fail(f"unknown ideal {spec!r}; expected {_ALIAS_HELP}")


def _parse_term(s: str) -> T.SetTerm:
    return _read("term", S.term_from_obj, _load_json(s))


def _parse_value(s: str):
    """Target point: a rational like 3 or 1/2, a {num,den} object, or a
    bare label of a finite space."""
    s = s.strip()
    if s.startswith("{") or s.lstrip("-").isdigit():
        return _read("point", S.value_from_obj, _load_json(s))
    if "/" in s:
        num, _, den = s.partition("/")
        try:
            return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):
            _fail(f"bad rational {s!r}")
    return s


_FIXTURE_KEYS = {"term", "element", "function", "ideal", "base", "aux", "point"}


def _load_fixture(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        text = raw.decode(json.detect_encoding(raw), "surrogatepass")  # as json.loads(raw) would
        _check_depth(text, "fixture file")
        doc = json.loads(text)
    except OSError as e:
        _fail(f"cannot read fixture file: {e}")
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        _fail(f"fixture file is not valid JSON: {e}")
    if not isinstance(doc, dict):
        _fail("fixture file must hold a JSON object")
    unknown = set(doc) - _FIXTURE_KEYS
    if unknown:
        _fail(f"unknown fixture keys: {sorted(unknown)}")
    return doc


def _fixture(args) -> dict:
    """The fixture file's object ({} without one), read on first use and
    at most once per command."""
    if "_fx" not in vars(args):
        path = getattr(args, "fixture", None)
        args._fx = _load_fixture(path) if path else {}
    return args._fx


def _input(args, what: str, flag: str, keys: tuple, read, parse=None):
    """The one flag-or-fixture lookup: the --flag text (through parse, or
    as JSON through read), else the first of keys in the fixture file."""
    text = getattr(args, flag, None)
    if text:
        return parse(text) if parse else _read(what, read, _load_json(text))
    fx = _fixture(args)
    for k in keys:
        if k in fx:
            return _read(what, read, fx[k])
    _fail(f"no {what} given: pass --{flag} or a fixture file with a {keys[0]!r} key")


def _need_fn(args):
    f = _input(args, "function", "fn", ("function",), S.fn_from_obj)
    rep = validate_fn(f)
    if not rep.ok:
        raise E.InvalidFunction("; ".join(rep.problems))
    return f


def _need_ideal(args, flag: str, key: str, default: Universe) -> Ideal:
    keys = (key, "ideal") if key == "base" else (key,)
    return _input(
        args, f"{key} ideal", flag, keys, S.ideal_from_obj, lambda s: parse_ideal(s, default)
    )


def _need_target(args):
    return _input(args, "target point", "x", ("point",), S.value_from_obj, _parse_value)


def _emit(args, obj, lines):
    if args.output == "json":
        print(S.canonical_dumps(obj))
    else:
        for line in lines:
            print(line)


# --- subcommands ---


def _cmd_ideal_info(args) -> int:
    if args.name == "principal":
        if not args.set:
            _fail("principal needs --set '<term json>'")
        i = principal(_parse_term(args.set))
    else:
        spec = args.name
        if args.name in ("fin", "improper") and args.universe:
            spec = f"{args.name}:{args.universe}"
        if args.name == "mac" and args.partition:
            spec = f"mac:{args.partition}"
        i = parse_ideal(spec)
    flags = {"admissible": admissible(i), "proper": proper(i), "has_maximum": has_maximum(i)}
    obj = {"ideal": S.ideal_to_obj(i), "universe": i.universe.value, **flags}
    lines = [f"ideal: {i.kind}", f"universe: {i.universe.value}"]
    lines += [f"{k.replace('_', ' ')}: {str(v).lower()}" for k, v in flags.items()]
    mt = maximum_term(i)
    if mt is not None:
        obj["maximum"] = S.term_to_obj(mt)
        lines.append(f"maximum: {S.canonical_dumps(S.term_to_obj(mt))}")
    _emit(args, obj, lines)
    return 0


def _cmd_set_classify(args) -> int:
    t = _input(args, "term", "term", ("term",), S.term_from_obj)
    try:
        cls = T.classify(t)
    except E.UnsupportedCombination as e:
        raise _Exit(3, str(e))
    obj = {"kind": cls.kind}
    lines = [f"kind: {cls.kind}"]
    if cls.cardinality is not None:
        obj["cardinality"] = cls.cardinality
        lines.append(f"cardinality: {cls.cardinality}")
    if cls.elements is not None:
        obj["elements"] = [S._element_to_obj(t.universe, e) for e in cls.elements]
        lines.append(f"elements: {S.canonical_dumps(obj['elements'])}")
    if args.ideal:
        i = parse_ideal(args.ideal, t.universe)
        if i.universe is not t.universe:
            _fail("the ideal lives on a different universe than the term")
        m = in_ideal(i, t)
        obj["in_ideal"] = m
        lines.append(f"in ideal: {str(m).lower()}")
    _emit(args, obj, lines)
    return 0


def _cmd_set_member(args) -> int:
    t = _parse_term(args.term)
    e = _read("element", lambda o: S.element_from_obj(t.universe, o), _load_json(args.element))
    m = T.member(t, e)
    _emit(args, {"member": m}, [f"member: {str(m).lower()}"])
    return 0


def _strict_exit(args, unknown: bool) -> int:
    return 3 if unknown and args.strict else 0


def _cmd_conv(args) -> int:
    f = _need_fn(args)
    i = _need_ideal(args, "I", "base", f.universe)
    x = _need_target(args)
    want_star = args.cmd == "witness" or args.J is not None or "aux" in _fixture(args)
    if not want_star:
        v = converges(f, i, x)
        _emit(args, {"verdict": v.value}, [f"verdict: {v.value}"])
        return _strict_exit(args, v is Verdict.UNKNOWN)
    j = _need_ideal(args, "J", "aux", f.universe)
    res = star_converges(f, i, j, x)
    obj = S.star_to_obj(res)
    lines = [f"verdict: {res.verdict.value}"]
    if res.witness is not None:
        lines.append(f"witness: {S.canonical_dumps(S.term_to_obj(res.witness.m))}")
    lines.append(f"reason: {res.reason}")
    _emit(args, obj, lines)
    return _strict_exit(args, res.verdict is Verdict.UNKNOWN)


def _cmd_ap(args) -> int:
    i = _need_ideal(args, "I", "base", Universe.NAT)
    j = _need_ideal(args, "J", "aux", i.universe)
    v = additive_property(i, j)
    obj = {"status": v.status.value, "rule": v.rule}
    lines = [f"status: {v.status.value}", f"rule: {v.rule}"]
    if v.witness is not None:
        obj["witness_partition"] = v.witness.partition.pid
        lines.append(f"witness family: blocks of {v.witness.partition.pid}")
    _emit(args, obj, lines)
    return _strict_exit(args, v.status is ApStatus.UNKNOWN)


def _crosscheck_suite(bound: int) -> list:
    """The canonical JSON of each random term whose crosscheck fails."""
    rng = random.Random(2026)
    rows = []
    for universe in (Universe.NAT, Universe.NATPAIR):
        for _ in range(100):
            t = random_term(rng, universe)
            if not crosscheck(t, bound).ok:
                rows.append(S.canonical_dumps(S.term_to_obj(t)))
    return rows


def _cmd_oracle(args) -> int:
    size = args.size
    if not 1 <= size <= 4:
        _fail(f"--size must be between 1 and 4, got {size}")
    # one (JSON report, text detail, violation count) per suite, in one pass
    suites = []
    if args.suite in ("lemma", "all"):
        rep = lemma_suite(size)
        claims = [
            {"claim": c.name, "instances": c.checked, "violations": list(c.violations)}
            for c in rep.claims
        ]
        obj = {"suite": "lemma", "size": rep.size, "claims": claims}
        suites.append((obj, f" claims={len(claims)}", rep.violations))
    if args.suite in ("agreement", "all"):
        rep = agreement_sweep(size)
        obj = {
            "suite": "agreement",
            "size": rep.size,
            "convergence_instances": rep.conv_checked,
            "star_instances": rep.star_checked,
            "violations": list(rep.disagreements),
        }
        detail = f" conv={rep.conv_checked} star={rep.star_checked}"
        suites.append((obj, detail, len(rep.disagreements)))
    if args.suite in ("pi", "all"):
        rep = pi_condition_crosscheck(size)
        bad = [repr(d) for d in rep.disagreements]
        obj = {"suite": "pi", "size": rep.size, "pairs": rep.pairs, "violations": bad}
        suites.append((obj, f" pairs={rep.pairs}", len(bad)))
    if args.suite in ("crosscheck", "all"):
        bad = _crosscheck_suite(50)
        suites.append(({"suite": "crosscheck", "bound": 50, "violations": bad}, "", len(bad)))
    violations = sum(n for _, _, n in suites)
    lines = [f"suite {obj['suite']}:{detail} violations={n}" for obj, detail, n in suites]
    lines.append(f"total violations: {violations}")
    _emit(args, {"reports": [obj for obj, _, _ in suites], "violations": violations}, lines)
    return 1 if violations else 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="idealconv",
        description="convergence along ideals: inspect, classify, decide",
    )
    ap.add_argument("--output", choices=("text", "json"), default="text")
    sub = ap.add_subparsers(dest="group", required=True)

    g_ideal = sub.add_parser("ideal", help="ideal catalog")
    s_ideal = g_ideal.add_subparsers(dest="cmd", required=True)
    p = s_ideal.add_parser("info", help="descriptor and flags")
    p.add_argument("name", help=_ALIAS_HELP)
    p.add_argument("--set", help="generator term JSON for principal")
    p.add_argument("--partition", help="partition id for mac")
    p.add_argument("--universe", help="nat or natpair for fin/improper")
    p.set_defaults(run=_cmd_ideal_info)

    g_set = sub.add_parser("set", help="symbolic set terms")
    s_set = g_set.add_subparsers(dest="cmd", required=True)
    p = s_set.add_parser("classify", help="empty / finite / infinite, exactly")
    p.add_argument("--term", help="term JSON")
    p.add_argument("--fixture", help="fixture file with a 'term' key")
    p.add_argument("--ideal", help="also report membership in this ideal")
    p.set_defaults(run=_cmd_set_classify)
    p = s_set.add_parser("member", help="does the term contain the element")
    p.add_argument("--term", required=True, help="term JSON")
    p.add_argument("--element", required=True, help="element JSON: n or [a,b]")
    p.set_defaults(run=_cmd_set_member)

    g_conv = sub.add_parser("conv", help="convergence decisions")
    s_conv = g_conv.add_subparsers(dest="cmd", required=True)
    for name, helptext in (
        ("decide", "decide convergence (add --J for the star variant)"),
        ("witness", "decide the star variant and print the witness set"),
    ):
        p = s_conv.add_parser(name, help=helptext)
        p.add_argument("--fn", help="function JSON")
        p.add_argument("--fixture", help="fixture file")
        p.add_argument("--I", dest="I", help="base ideal")
        p.add_argument("--J", dest="J", help="auxiliary ideal")
        p.add_argument("--x", help="target point")
        p.add_argument("--strict", action="store_true", help="exit 3 on unknown")
        p.set_defaults(run=_cmd_conv)

    p = sub.add_parser("ap", help="additive property of an ideal pair")
    p.add_argument("--I", dest="I", help="base ideal")
    p.add_argument("--J", dest="J", help="auxiliary ideal")
    p.add_argument("--fixture", help="fixture file with base/aux keys")
    p.add_argument("--strict", action="store_true", help="exit 3 on unknown")
    p.set_defaults(run=_cmd_ap, cmd="ap")

    g_oracle = sub.add_parser("oracle", help="exhaustive finite oracles")
    s_oracle = g_oracle.add_subparsers(dest="cmd", required=True)
    p = s_oracle.add_parser("run", help="run an oracle suite")
    p.add_argument("--size", type=int, default=3)
    p.add_argument(
        "--suite",
        choices=("all", "lemma", "agreement", "pi", "crosscheck"),
        default="all",
    )
    p.set_defaults(run=_cmd_oracle)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except _Exit as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except E.IdealConvError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
